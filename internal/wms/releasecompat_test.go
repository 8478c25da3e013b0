package wms

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// updateReleaseGoldens rewrites the release-path goldens from the current
// code. Only a deliberate, documented change of simulated output may use it.
var updateReleaseGoldens = flag.Bool("update-release-goldens", false,
	"rewrite testdata/{poll,event}compat.golden from the current code")

// randomDAG builds a seeded random DAG of n tasks. Task IDs carry a random
// letter prefix, so their lexicographic order (the poll loop's in-flight
// scan) differs from their declaration order (its release scan). Each task
// depends on up to three earlier tasks and consumes some of their outputs.
func randomDAG(t *testing.T, seed uint64, name string, n int) *Workflow {
	t.Helper()
	rng := sim.NewRNG(seed)
	wf := NewWorkflow(name)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%c%d", 'a'+rune(rng.Intn(4)), i)
		spec := TaskSpec{
			ID:             ids[i],
			Transformation: "matmul",
			WorkScale:      rng.Uniform(0.3, 2),
			Priority:       rng.Intn(3),
			Outputs:        []FileSpec{{LFN: ids[i] + ".out", Bytes: int64(1+rng.Intn(4)) << 12}},
		}
		var parents []int
		if i > 0 {
			for k := rng.Intn(4); k > 0; k-- {
				par := rng.Intn(i)
				dup := false
				for _, q := range parents {
					dup = dup || q == par
				}
				if dup {
					continue
				}
				parents = append(parents, par)
				if rng.Intn(3) > 0 {
					spec.Inputs = append(spec.Inputs, FileSpec{LFN: ids[par] + ".out", Bytes: 4096})
				}
			}
		}
		if err := wf.AddTask(spec); err != nil {
			t.Fatal(err)
		}
		for _, par := range parents {
			if err := wf.AddDependency(ids[par], ids[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return wf
}

// releaseCase is one scenario of the release-path goldens: a stack
// configuration plus a driver that runs one or more workflows on it and
// logs their outcomes.
type releaseCase struct {
	name string
	mode string
	prm  func(*config.Params)
	eng  func(*Engine)
	run  func(t *testing.T, s *stack, p *sim.Proc, log *bytes.Buffer)
}

// logRun appends a run's outcome to the golden log: the error (with the
// rescue's contents for aborts) and, per task in ID order, mode, node,
// attempts, and submit/start/finish times.
func logRun(log *bytes.Buffer, label string, res *RunResult, err error) {
	fmt.Fprintf(log, "run %s\n", label)
	var abort *AbortError
	if errors.As(err, &abort) {
		fmt.Fprintf(log, "  abort %q task=%s attempts=%d reason=%s abandoned=%d\n",
			err.Error(), abort.Task, abort.Attempts, abort.Reason, abort.Rescue.Abandoned)
		logTasks(log, abort.Rescue.Done)
		return
	}
	if err != nil {
		fmt.Fprintf(log, "  error %q\n", err.Error())
		return
	}
	fmt.Fprintf(log, "  started=%d finished=%d hedges=%d hedge-wins=%d\n",
		res.StartedAt, res.FinishedAt, res.Hedges, res.HedgeWins)
	logTasks(log, res.Tasks)
}

func logTasks(log *bytes.Buffer, tasks map[string]*TaskResult) {
	ids := make([]string, 0, len(tasks))
	for id := range tasks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		tr := tasks[id]
		fmt.Fprintf(log, "  task %s mode=%s node=%s attempts=%d submit=%d start=%d finish=%d\n",
			id, tr.Mode, tr.Node, tr.Attempts, tr.SubmittedAt, tr.StartedAt, tr.FinishedAt)
	}
}

// logSpans appends the span log in creation order: the engine's own (wms)
// spans verbatim, then the count and SHA-256 of the complete log, which
// covers every substrate's spans (condor, sched, crt, knative) as well.
func logSpans(log *bytes.Buffer, tr *trace.Tracer) {
	h := sha256.New()
	for _, sp := range tr.Spans() {
		var labels []string
		for _, l := range sp.Labels() {
			labels = append(labels, l.Key+"="+l.Value)
		}
		line := fmt.Sprintf("span %d<%d %s/%s %d..%d %s\n", sp.ID(), sp.Parent(),
			sp.Substrate(), sp.Name(), sp.Start(), sp.EndTime(), strings.Join(labels, " "))
		h.Write([]byte(line))
		if sp.Substrate() == "wms" {
			log.WriteString(line)
		}
	}
	fmt.Fprintf(log, "spans %d sha256 %x\n", len(tr.Spans()), h.Sum(nil))
}

// runOne runs a single workflow to completion or abort and logs it.
func runOne(wf *Workflow, assign ModeAssigner) func(*testing.T, *stack, *sim.Proc, *bytes.Buffer) {
	return func(t *testing.T, s *stack, p *sim.Proc, log *bytes.Buffer) {
		res, err := s.eng.RunWorkflow(p, wf, assign)
		logRun(log, wf.Name, res, err)
	}
}

// mixedModes deploys the serverless function and splits tasks across the
// three modes from a seeded stream.
func mixedModes(wf *Workflow, seed uint64) func(*testing.T, *stack, *sim.Proc, *bytes.Buffer) {
	return func(t *testing.T, s *stack, p *sim.Proc, log *bytes.Buffer) {
		s.deployFunction(p, t)
		runOne(wf, AssignFractions(sim.NewRNG(seed), 1, 1, 1))(t, s, p, log)
	}
}

// releaseCases is the scenario spread for one execution mode.
func releaseCases(t *testing.T, mode string) []releaseCase {
	retry := config.RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Second, Multiplier: 2, JitterFrac: 0.5}
	var cases []releaseCase
	for seed := uint64(1); seed <= 4; seed++ {
		cases = append(cases, releaseCase{
			name: fmt.Sprintf("random-%d", seed),
			run:  runOne(randomDAG(t, seed, "rand", 40), AssignAll(ModeNative)),
		})
	}
	cases = append(cases,
		releaseCase{
			name: "mixed-modes",
			run:  mixedModes(randomDAG(t, 11, "mixed", 36), 11),
		},
		releaseCase{
			name: "max-inflight",
			eng:  func(e *Engine) { e.MaxInflight = 3 },
			run:  runOne(randomDAG(t, 12, "throttled", 40), AssignAll(ModeNative)),
		},
		releaseCase{
			name: "hedges",
			eng:  func(e *Engine) { e.HedgeAfter = 3 * time.Second; e.HedgeMax = 2 },
			run:  runOne(randomDAG(t, 13, "hedged", 30), AssignAll(ModeNative)),
		},
		releaseCase{
			name: "retries",
			prm:  func(p *config.Params) { p.JobFailureProb = 0.25 },
			eng:  func(e *Engine) { e.Retry = retry; e.MaxInflight = 6 },
			run:  runOne(randomDAG(t, 14, "flaky", 40), AssignAll(ModeNative)),
		},
		releaseCase{
			name: "hedges-and-retries",
			prm:  func(p *config.Params) { p.JobFailureProb = 0.2 },
			eng:  func(e *Engine) { e.Retry = retry; e.HedgeAfter = 4 * time.Second },
			run:  mixedModes(randomDAG(t, 15, "stormy", 30), 15),
		},
		releaseCase{
			name: "rescue-resume",
			eng:  func(e *Engine) { e.Retry = config.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Second} },
			run: func(t *testing.T, s *stack, p *sim.Proc, log *bytes.Buffer) {
				in := attachFaults(s)
				in.Schedule(faults.Fault{Kind: faults.KindJobFailure, At: 15 * time.Second,
					Duration: 60 * time.Second, Rate: 0.6})
				wf := randomDAG(t, 16, "rescued", 40)
				res, err := s.eng.RunWorkflow(p, wf, AssignAll(ModeNative))
				logRun(log, "first", res, err)
				var abort *AbortError
				if !errors.As(err, &abort) {
					t.Errorf("first run: err = %v, want an abort", err)
					return
				}
				if now := p.Now(); now < 80*time.Second {
					p.Sleep(80*time.Second - now)
				}
				res, err = s.eng.ResumeWorkflow(p, wf, AssignAll(ModeNative), abort.Rescue)
				logRun(log, "resumed", res, err)
			},
		},
		releaseCase{
			name: "deadline",
			eng:  func(e *Engine) { e.Deadline = 25 * time.Second; e.MaxInflight = 8 },
			run:  runOne(randomDAG(t, 17, "late", 60), AssignAll(ModeNative)),
		},
		releaseCase{
			name: "two-workflows",
			eng:  func(e *Engine) { e.MaxInflight = 10 },
			run: func(t *testing.T, s *stack, p *sim.Proc, log *bytes.Buffer) {
				var logs [2]bytes.Buffer
				left := 2
				done := sim.NewFuture[struct{}](s.env)
				for i := range logs {
					wf := randomDAG(t, uint64(18+i), fmt.Sprintf("wf%d", i), 35)
					s.env.Go(wf.Name, func(wp *sim.Proc) {
						res, err := s.eng.RunWorkflow(wp, wf, AssignAll(ModeNative))
						logRun(&logs[i], wf.Name, res, err)
						if left--; left == 0 {
							done.Set(struct{}{})
						}
					})
				}
				done.Get(p)
				log.Write(logs[0].Bytes())
				log.Write(logs[1].Bytes())
			},
		},
	)
	for i := range cases {
		cases[i].mode = mode
	}
	return cases
}

// runRelease runs one scenario on a fresh traced stack until the
// simulation drains, returning the stack, the scenario's log, and the tracer.
func runRelease(t *testing.T, tc releaseCase) (*stack, *bytes.Buffer, *trace.Tracer) {
	s := newModeStack(t, tc.mode, func(p *config.Params) {
		p.TaskJitterFrac = 0.3
		if tc.prm != nil {
			tc.prm(p)
		}
	})
	if tc.eng != nil {
		tc.eng(s.eng)
	}
	tr := trace.New(s.env)
	var log bytes.Buffer
	s.env.Go("main", func(p *sim.Proc) {
		defer s.shutdown()
		tc.run(t, s, p, &log)
	})
	s.env.Run()
	return s, &log, tr
}

// replayRelease runs every scenario and renders the golden text.
func replayRelease(t *testing.T, cases []releaseCase) []byte {
	var out bytes.Buffer
	for _, tc := range cases {
		s, log, tr := runRelease(t, tc)
		fmt.Fprintf(&out, "== %s/%s (end %d, alive %d)\n", tc.mode, tc.name, s.env.Now(), s.env.Alive())
		out.Write(log.Bytes())
		logSpans(&out, tr)
	}
	return out.Bytes()
}

// TestDeadlineAbortDrains: after the goldens' deadline abort, in every
// execution mode, no process is left alive and every condor span has ended.
// The run's copies still queued in condor are removed at the abort, so no
// event-mode watcher waits on a job that can never be matched. (The engine
// leaves the wms attempt spans of abandoned tasks open after any abort.)
func TestDeadlineAbortDrains(t *testing.T) {
	for _, mode := range []string{"poll", "decentralized", "trigger"} {
		var ran bool
		for _, tc := range releaseCases(t, mode) {
			if tc.name != "deadline" {
				continue
			}
			ran = true
			s, log, tr := runRelease(t, tc)
			if !strings.Contains(log.String(), "reason=deadline") {
				t.Fatalf("%s: the scenario did not abort on its deadline:\n%s", mode, log)
			}
			if n := s.env.Alive(); n != 0 {
				t.Errorf("%s: %d processes alive after the deadline abort drained", mode, n)
			}
			removed := 0
			for _, sp := range tr.Spans() {
				if sp.Substrate() == "condor" && !sp.Ended() {
					t.Errorf("%s: span %s/%s %v never ended", mode, sp.Substrate(), sp.Name(), sp.Labels())
				}
				if v, _ := sp.Label("status"); v == "removed" {
					removed++
				}
			}
			if removed == 0 {
				t.Errorf("%s: the abort removed no queued job, so the drain check proves nothing", mode)
			}
		}
		if !ran {
			t.Fatalf("%s: no deadline scenario", mode)
		}
	}
}

// TestReleaseCompatGoldens pins every engine release path to the simulated
// output the seed's full-DAG rescan produced: per-task placement and timing
// plus the complete span log, over seeded random DAGs with throttling,
// hedging, retries with backoff, a rescue-DAG resume, a deadline abort, and
// two workflows sharing one pool. pollcompat covers the DAGMan poll loop,
// eventcompat the decentralized and trigger drivers.
func TestReleaseCompatGoldens(t *testing.T) {
	goldens := []struct {
		file  string
		modes []string
	}{
		{"pollcompat.golden", []string{"poll"}},
		{"eventcompat.golden", []string{"decentralized", "trigger"}},
	}
	for _, g := range goldens {
		t.Run(strings.TrimSuffix(g.file, ".golden"), func(t *testing.T) {
			var cases []releaseCase
			for _, mode := range g.modes {
				cases = append(cases, releaseCases(t, mode)...)
			}
			got := replayRelease(t, cases)
			path := filepath.Join("testdata", g.file)
			if *updateReleaseGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s diverged at line %d:\n got: %s\nwant: %s", g.file, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s diverged in length: got %d lines, want %d", g.file, len(gl), len(wl))
			}
		})
	}
}
