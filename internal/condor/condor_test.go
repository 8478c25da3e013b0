package condor

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/sim"
)

type fixture struct {
	env *sim.Env
	cl  *cluster.Cluster
	s   *Schedd
	prm config.Params
}

func newFixture(t *testing.T, mut func(*config.Params)) *fixture {
	t.Helper()
	prm := config.Default()
	if mut != nil {
		mut(&prm)
	}
	env := sim.NewEnv(1)
	cl := cluster.New(env, prm)
	s := New(env, cl, prm)
	s.Start()
	return &fixture{env: env, cl: cl, s: s, prm: prm}
}

// fastCycle switches to the global-cycle negotiation model with a short,
// deterministic cycle.
func fastCycle(p *config.Params) {
	p.PerJobNegotiation = false
	p.NegotiatorCycle = time.Second
	p.NegotiatorJitterFrac = 0
	p.CondorJitterFrac = 0
}

// fastPerJob keeps the per-job negotiation model with a short deterministic
// delay.
func fastPerJob(p *config.Params) {
	p.PerJobNegotiation = true
	p.NegotiationDelay = time.Second
	p.NegotiatorJitterFrac = 0
	p.CondorJitterFrac = 0
}

func TestJobRunsAndCompletes(t *testing.T) {
	f := newFixture(t, fastCycle)
	f.env.Go("main", func(p *sim.Proc) {
		j := f.s.Submit("task", 1<<20, 1<<19, func(ctx *ExecContext) error {
			ctx.Node.Exec(ctx.Proc, 0.44, 1)
			return nil
		})
		if err := f.s.Wait(p, j); err != nil {
			t.Fatal(err)
		}
		if j.Status() != StatusCompleted {
			t.Errorf("status = %v", j.Status())
		}
		if j.Node() == "" {
			t.Error("job has no node")
		}
		if !(j.SubmittedAt <= j.MatchedAt && j.MatchedAt <= j.StartedAt && j.StartedAt < j.FinishedAt) {
			t.Errorf("timestamps out of order: %v %v %v %v", j.SubmittedAt, j.MatchedAt, j.StartedAt, j.FinishedAt)
		}
		f.s.Shutdown()
	})
	f.env.Run()
	if f.s.Completed() != 1 {
		t.Errorf("Completed = %d", f.s.Completed())
	}
}

func TestJobWaitsForNegotiationCycle(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		p.NegotiatorCycle = 10 * time.Second
		p.NegotiatorJitterFrac = 0
	})
	f.env.Go("main", func(p *sim.Proc) {
		j := f.s.Submit("task", 0, 0, func(ctx *ExecContext) error { return nil })
		_ = f.s.Wait(p, j)
		if j.MatchedAt < 10*time.Second {
			t.Errorf("matched at %v, before first cycle", j.MatchedAt)
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestParallelJobsSpreadAcrossNodes(t *testing.T) {
	f := newFixture(t, fastCycle)
	f.env.Go("main", func(p *sim.Proc) {
		var jobs []*Job
		for i := 0; i < 6; i++ {
			jobs = append(jobs, f.s.Submit("task", 0, 0, func(ctx *ExecContext) error {
				ctx.Node.Exec(ctx.Proc, 1, 1)
				return nil
			}))
		}
		nodes := map[string]int{}
		for _, j := range jobs {
			_ = f.s.Wait(p, j)
			nodes[j.Node()]++
		}
		if len(nodes) != 3 {
			t.Errorf("6 jobs used %d nodes, want 3", len(nodes))
		}
		for n, c := range nodes {
			if c != 2 {
				t.Errorf("node %s ran %d jobs, want 2 (spread)", n, c)
			}
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestPoolSaturationDefersToNextCycle(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		p.NegotiatorCycle = 5 * time.Second
		p.NegotiatorJitterFrac = 0
		p.WorkerNodes = 1
		p.CoresPerNode = 2 // 2 slots total
	})
	f.env.Go("main", func(p *sim.Proc) {
		var jobs []*Job
		for i := 0; i < 3; i++ {
			jobs = append(jobs, f.s.Submit("task", 0, 0, func(ctx *ExecContext) error {
				ctx.Proc.Sleep(time.Second) // hold the slot
				return nil
			}))
		}
		for _, j := range jobs {
			_ = f.s.Wait(p, j)
		}
		// Third job cannot match in the first cycle (2 slots).
		if jobs[2].MatchedAt < 10*time.Second {
			t.Errorf("third job matched at %v, want second cycle (≥10s)", jobs[2].MatchedAt)
		}
		f.s.Shutdown()
	})
	f.env.Run()
	if f.s.FreeSlots() != f.s.TotalSlots() {
		t.Errorf("slots leaked: %d free of %d", f.s.FreeSlots(), f.s.TotalSlots())
	}
}

func TestShadowSpawnSerializesDispatch(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastCycle(p)
		p.ShadowSpawn = 300 * time.Millisecond
		p.JobStartOverhead = 0
	})
	const n = 8
	f.env.Go("main", func(p *sim.Proc) {
		var jobs []*Job
		for i := 0; i < n; i++ {
			jobs = append(jobs, f.s.Submit("task", 0, 0, func(ctx *ExecContext) error { return nil }))
		}
		var starts []time.Duration
		for _, j := range jobs {
			_ = f.s.Wait(p, j)
			starts = append(starts, j.StartedAt)
		}
		// Starts must be staggered by ~ShadowSpawn even though all match in
		// the same cycle.
		span := starts[len(starts)-1] - starts[0]
		want := time.Duration(n-1) * 300 * time.Millisecond
		if span < want {
			t.Errorf("dispatch span %v < %v: shadow spawns not serialized", span, want)
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestInputTransfersShareSubmitUplink(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastCycle(p)
		p.ShadowSpawn = 0
		p.JobStartOverhead = 0
		p.SubmitUplinkBps = 1e6 // 1 MB/s to make transfer time visible
	})
	f.env.Go("main", func(p *sim.Proc) {
		var jobs []*Job
		for i := 0; i < 4; i++ {
			jobs = append(jobs, f.s.Submit("task", 1e6, 0, func(ctx *ExecContext) error { return nil }))
		}
		var lastStart time.Duration
		for _, j := range jobs {
			_ = f.s.Wait(p, j)
			if j.StartedAt > lastStart {
				lastStart = j.StartedAt
			}
		}
		// 4 MB through a 1 MB/s uplink ≈ 4s of serialized transfer after the
		// 1s cycle.
		if lastStart < 4*time.Second {
			t.Errorf("last start %v; uplink sharing not effective", lastStart)
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestFailedJobPropagatesError(t *testing.T) {
	f := newFixture(t, fastCycle)
	boom := errors.New("task exploded")
	f.env.Go("main", func(p *sim.Proc) {
		j := f.s.Submit("task", 0, 1<<20, func(ctx *ExecContext) error { return boom })
		if err := f.s.Wait(p, j); !errors.Is(err, boom) {
			t.Errorf("err = %v", err)
		}
		if j.Status() != StatusFailed {
			t.Errorf("status = %v", j.Status())
		}
		f.s.Shutdown()
	})
	f.env.Run()
	if f.s.FreeSlots() != f.s.TotalSlots() {
		t.Error("failed job leaked its slot")
	}
}

func TestSubmitBeforeStartPanics(t *testing.T) {
	prm := config.Default()
	env := sim.NewEnv(1)
	cl := cluster.New(env, prm)
	s := New(env, cl, prm)
	defer func() {
		if recover() == nil {
			t.Error("Submit before Start did not panic")
		}
	}()
	s.Submit("task", 0, 0, func(ctx *ExecContext) error { return nil })
}

func TestPerJobNegotiationDelay(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		p.PerJobNegotiation = true
		p.NegotiationDelay = 8 * time.Second
		p.NegotiatorJitterFrac = 0
		p.CondorJitterFrac = 0
	})
	f.env.Go("main", func(p *sim.Proc) {
		p.Sleep(3 * time.Second) // submit mid-stream; delay counts from submit
		j := f.s.Submit("task", 0, 0, func(ctx *ExecContext) error { return nil })
		_ = f.s.Wait(p, j)
		if j.MatchedAt != 11*time.Second {
			t.Errorf("matched at %v, want 11s (submit 3s + delay 8s)", j.MatchedAt)
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestPerJobBlockedJobGetsFreedSlot(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastPerJob(p)
		p.WorkerNodes = 1
		p.CoresPerNode = 1 // a single slot
		p.ShadowSpawn = 0
		p.JobStartOverhead = 0
	})
	f.env.Go("main", func(p *sim.Proc) {
		hold := f.s.Submit("holder", 0, 0, func(ctx *ExecContext) error {
			ctx.Proc.Sleep(10 * time.Second)
			return nil
		})
		waiter := f.s.Submit("waiter", 0, 0, func(ctx *ExecContext) error { return nil })
		_ = f.s.Wait(p, hold)
		_ = f.s.Wait(p, waiter)
		// Holder occupies the only slot until t=11s; waiter was negotiated
		// at t=1s, blocked, and must start right when the slot frees.
		if waiter.StartedAt < 11*time.Second || waiter.StartedAt > 11*time.Second+100*time.Millisecond {
			t.Errorf("blocked job started at %v, want ≈11s", waiter.StartedAt)
		}
		f.s.Shutdown()
	})
	f.env.Run()
	if f.s.QueueDepth() != 0 {
		t.Errorf("QueueDepth = %d after drain", f.s.QueueDepth())
	}
}

func TestPriorityOrdersBlockedQueue(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastPerJob(p)
		p.WorkerNodes = 1
		p.CoresPerNode = 1 // one slot: everything else queues
		p.ShadowSpawn = 0
		p.JobStartOverhead = 0
	})
	var order []string
	f.env.Go("main", func(p *sim.Proc) {
		hold := f.s.Submit("holder", 0, 0, func(ctx *ExecContext) error {
			ctx.Proc.Sleep(10 * time.Second)
			return nil
		})
		// Both negotiate at ~1s while the holder occupies the slot; the
		// low-priority job was submitted first but must yield.
		low := f.s.Submit("low", 0, 0, func(ctx *ExecContext) error {
			order = append(order, "low")
			return nil
		})
		high := f.s.SubmitPriority("high", 10, 0, 0, func(ctx *ExecContext) error {
			order = append(order, "high")
			return nil
		})
		_ = f.s.Wait(p, hold)
		_ = f.s.Wait(p, high)
		_ = f.s.Wait(p, low)
		f.s.Shutdown()
	})
	f.env.Run()
	if len(order) != 2 || order[0] != "high" {
		t.Errorf("execution order = %v, want high before low", order)
	}
}

func TestPriorityOrdersCycleQueue(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastCycle(p)
		p.WorkerNodes = 1
		p.CoresPerNode = 1
		p.ShadowSpawn = 0
		p.JobStartOverhead = 0
	})
	var first string
	f.env.Go("main", func(p *sim.Proc) {
		low := f.s.Submit("low", 0, 0, func(ctx *ExecContext) error {
			if first == "" {
				first = "low"
			}
			ctx.Proc.Sleep(time.Second)
			return nil
		})
		high := f.s.SubmitPriority("high", 5, 0, 0, func(ctx *ExecContext) error {
			if first == "" {
				first = "high"
			}
			ctx.Proc.Sleep(time.Second)
			return nil
		})
		_ = f.s.Wait(p, low)
		_ = f.s.Wait(p, high)
		f.s.Shutdown()
	})
	f.env.Run()
	if first != "high" {
		t.Errorf("first matched = %q, want high (priority within cycle)", first)
	}
}

func TestRequirementsPinJobToNode(t *testing.T) {
	f := newFixture(t, fastPerJob)
	f.env.Go("main", func(p *sim.Proc) {
		want := "worker2"
		j := f.s.SubmitConstrained("pinned", 0, func(n *cluster.Node) bool {
			return n.Name == want
		}, 0, 0, func(ctx *ExecContext) error { return nil })
		if err := f.s.Wait(p, j); err != nil {
			t.Fatal(err)
		}
		if j.Node() != want {
			t.Errorf("ran on %s, want %s", j.Node(), want)
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

func TestUnsatisfiableRequirementStaysIdle(t *testing.T) {
	f := newFixture(t, fastPerJob)
	f.env.Go("main", func(p *sim.Proc) {
		f.s.SubmitConstrained("impossible", 0, func(n *cluster.Node) bool {
			return false
		}, 0, 0, func(ctx *ExecContext) error { return nil })
		ok := f.s.Submit("normal", 0, 0, func(ctx *ExecContext) error { return nil })
		if err := f.s.Wait(p, ok); err != nil {
			t.Fatal(err)
		}
		f.s.Shutdown()
	})
	f.env.RunUntil(time.Minute)
	if f.s.QueueDepth() != 1 {
		t.Errorf("QueueDepth = %d, want 1 (the unsatisfiable job)", f.s.QueueDepth())
	}
	if f.s.Completed() != 1 {
		t.Errorf("Completed = %d; the satisfiable job must not be blocked", f.s.Completed())
	}
}

func TestRequirementsDoNotBlockQueueInCycleMode(t *testing.T) {
	f := newFixture(t, fastCycle)
	f.env.Go("main", func(p *sim.Proc) {
		// Unsatisfiable job submitted FIRST; the later unconstrained job
		// must still be matched in the same cycle.
		f.s.SubmitConstrained("stuck", 5, func(n *cluster.Node) bool { return false },
			0, 0, func(ctx *ExecContext) error { return nil })
		ok := f.s.Submit("runs", 0, 0, func(ctx *ExecContext) error { return nil })
		if err := f.s.Wait(p, ok); err != nil {
			t.Fatal(err)
		}
		if ok.MatchedAt > 2*time.Second {
			t.Errorf("unconstrained job matched at %v; head-of-line blocked", ok.MatchedAt)
		}
		f.s.Shutdown()
	})
	f.env.RunUntil(time.Minute)
}

func TestShutdownStopsNegotiator(t *testing.T) {
	f := newFixture(t, fastCycle)
	f.env.Go("main", func(p *sim.Proc) {
		f.s.Shutdown()
	})
	f.env.Run()
	if f.env.Alive() != 0 {
		t.Errorf("%d processes alive after shutdown", f.env.Alive())
	}
}

// TestRemoveQueuedJobs: Remove (condor_rm) takes idle and blocked jobs out
// of the queue in both negotiation models, failing their futures so
// waiters return; a removed job never runs, a matched job cannot be
// removed, and the freed queue position goes to the next job.
func TestRemoveQueuedJobs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*config.Params)
	}{{"per-job", fastPerJob}, {"cycle", fastCycle}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, func(p *config.Params) {
				tc.mut(p)
				p.WorkerNodes = 1
				p.CoresPerNode = 1 // a single slot
			})
			ran := map[string]bool{}
			job := func(name string) *Job {
				return f.s.Submit(name, 0, 0, func(ctx *ExecContext) error {
					ran[name] = true
					ctx.Proc.Sleep(10 * time.Second)
					return nil
				})
			}
			f.env.Go("main", func(p *sim.Proc) {
				hold, blocked, idle, next := job("hold"), job("blocked"), job("idle"), job("next")
				if !f.s.Remove(idle) { // before its first negotiation
					t.Error("idle job not removed")
				}
				p.Sleep(5 * time.Second) // hold runs; blocked and next wait
				if f.s.Remove(hold) {
					t.Error("running job removed")
				}
				if !f.s.Remove(blocked) {
					t.Error("waiting job not removed")
				}
				if f.s.Remove(blocked) {
					t.Error("job removed twice")
				}
				for _, j := range []*Job{idle, blocked} {
					if err := f.s.Wait(p, j); err == nil || j.Status() != StatusFailed {
						t.Errorf("%s: Wait = %v, status %v; want an error and Failed", j.Name, err, j.Status())
					}
				}
				for _, j := range []*Job{hold, next} {
					if err := f.s.Wait(p, j); err != nil {
						t.Errorf("%s: %v", j.Name, err)
					}
				}
				f.s.Shutdown()
			})
			f.env.Run()
			if ran["idle"] || ran["blocked"] || !ran["hold"] || !ran["next"] {
				t.Errorf("jobs run: %v, want hold and next only", ran)
			}
			if f.s.QueueDepth() != 0 || f.env.Alive() != 0 {
				t.Errorf("queue depth %d, %d processes alive after drain", f.s.QueueDepth(), f.env.Alive())
			}
		})
	}
}
