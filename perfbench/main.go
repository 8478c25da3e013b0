// Command perfbench measures the host cost of the simulator: how fast a
// study runs, how much machine it takes, and whether its simulated results
// stay exactly the same. It runs one of three workloads (serve, place,
// workflow; see README.md) for a fixed number of host seconds, checks the
// simulated outputs, and prints one JSON object as the last line of
// standard output. It exits non-zero, printing no result, when it cannot
// run.
//
//	perfbench --workload serve --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics of untraced
// rounds. With --trace 1 it carries the per-layer metrics: untraced rounds
// for the runtime and set-up timings, then one round with the span tracer
// attached and CPU and allocation profiles recorded.
//
// The report and compare subcommands (report.go) run the benchmark several
// times and summarize or compare the results offline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// workloadSpec is a workload and how a run measures it.
type workloadSpec struct {
	run workloadFn
	// roundSeconds is about a round's timed phase on the reference host (a
	// shared 2-core Xeon at 2.1 GHz). A run makes seconds/roundSeconds
	// rounds, rounded, so it measures about the seconds asked for, and the
	// number of rounds, and with it the run's inputs, depends on the
	// arguments alone.
	roundSeconds float64
	// setups is how many times an untraced round sets the workload up. All
	// but the last stop where the timed phase would begin; setup_s is the
	// median of every set-up of the run. Short set-ups are repeated so that
	// their median is steady; serve's takes seconds and is not.
	setups int
}

var workloads = map[string]workloadSpec{
	"serve":    {serve, 18, 1},
	"place":    {place, 5, 7},
	"workflow": {workflow, 9.5, 5},
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "round":
			os.Exit(roundMain(os.Args[2:]))
		case "report":
			os.Exit(reportMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "record":
			os.Exit(recordMain(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: serve, place or workflow")
	seed := fs.Uint64("seed", primarySeed, "run seed")
	seconds := fs.Float64("seconds", 25, "host seconds of timed rounds to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced, profiled round")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload serve|place|workflow, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	res, err := runBenchmark(*name, *seed, *seconds, *traced == 1)
	if err == nil {
		err = spec.check(res.Metrics, *traced == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// roundsFor is the number of untraced rounds a run of seconds makes.
func roundsFor(name string, seconds float64) int {
	return max(1, int(math.Round(seconds/workloads[name].roundSeconds)))
}

// inputSeed is the seed of round j's inputs in a run with the given seed.
// Only workflow's inputs depend on it. They come from fixed pools of DAG
// seeds whose outputs digests.json records, so every round is checked
// whatever the run's seed: a run starts at entry seed mod devInputs of the
// development pool and takes the entries that follow. The held-out seed
// draws from a pool of its own, disjoint from the development pool.
func inputSeed(seed uint64, j int) uint64 {
	if seed == heldOutSeed {
		return heldOutSeed + uint64(j%heldOutInputs)
	}
	return (seed + uint64(j)) % devInputs
}

// runBenchmark runs the untraced rounds and, when traced, one more round
// on the first round's inputs with the tracer attached and profiles
// recorded. Each round runs in a fresh process, so no round inherits
// another's heap, and the process's peak resident set is the round's own.
func runBenchmark(name string, seed uint64, seconds float64, traced bool) (result, error) {
	res := result{Correct: true}
	// check fails a round whose own checks failed or whose outputs differ
	// from the digests recorded for its inputs or from the untraced round
	// on the same inputs.
	check := func(rr roundResult, in uint64, same map[string]string) {
		res.Attempted += rr.Ops
		var err error
		switch {
		case rr.Err != "":
			err = errors.New(rr.Err)
		case same != nil:
			err = sameDigests(rr.Digests, same, "the untraced round's")
		}
		if err == nil {
			if want := expectedDigests(name, in); want == nil {
				err = errors.New("digests.json records no digests for this input")
			} else {
				err = sameDigests(rr.Digests, want, "the recorded")
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s input seed %d: check failed: %v\n", name, in, err)
			res.Correct = false
			res.Failed += rr.Ops
		}
	}
	var rounds []roundResult
	for j := 0; j < roundsFor(name, seconds); j++ {
		in := inputSeed(seed, j)
		rr, err := spawnRound(name, in, false)
		if err != nil {
			return res, err
		}
		check(rr, in, nil)
		rounds = append(rounds, rr)
		fmt.Fprintf(os.Stderr, "perfbench: %s input seed %d: set-ups %.3v s, %d ops in %.2f s, peak RSS %.1f MB, digests %v\n",
			name, in, rr.Setups, rr.Ops, rr.Wall, rr.PeakRSS/(1<<20), rr.Digests)
	}
	if !traced {
		res.Metrics = endToEnd(rounds)
		return res, nil
	}
	in := inputSeed(seed, 0)
	tr, err := spawnRound(name, in, true)
	if err != nil {
		return res, err
	}
	check(tr, in, rounds[0].Digests)
	res.Metrics = perLayer(rounds, tr)
	return res, nil
}

// spawnRound runs one round in a child process and reads its report.
func spawnRound(name string, seed uint64, traced bool) (roundResult, error) {
	var rr roundResult
	exe, err := os.Executable()
	if err != nil {
		return rr, fmt.Errorf("locate own binary: %w", err)
	}
	args := []string{"round", "--workload", name, "--seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "--trace")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return rr, fmt.Errorf("round of %s: %w", name, err)
	}
	if err := json.Unmarshal(stdout, &rr); err != nil {
		return rr, fmt.Errorf("round of %s: read report: %w", name, err)
	}
	rr.PeakRSS = float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) * 1024
	return rr, nil
}

// roundMain is the child side of spawnRound.
func roundMain(args []string) int {
	fs := flag.NewFlagSet("round", flag.ExitOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 1, "input seed")
	traced := fs.Bool("trace", false, "trace and profile the round")
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench round: unknown workload %q\n", *name)
		return 2
	}
	setups := w.setups
	if *traced {
		setups = 1
	}
	// The round runs its simulation, collector included, on one processor.
	// On a shared 2-core host the second core is where other tenants' load
	// lands: with two processors, how fast the concurrent collector kept
	// up with the simulation, and with it the round's wall time and peak
	// memory, followed that load (README.md gives the figures).
	runtime.GOMAXPROCS(1)
	b, err := json.Marshal(runRound(w.run, *seed, setups, *traced, os.Stderr))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench round: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func sameDigests(got, want map[string]string, what string) error {
	for k, w := range want {
		if got[k] != w {
			return fmt.Errorf("%s digest %s differs from %s %s", k, got[k], what, w)
		}
	}
	return nil
}

// medianOf is the median of f over the rounds.
func medianOf(rounds []roundResult, f func(roundResult) float64) float64 {
	v := make([]float64, len(rounds))
	for i, r := range rounds {
		v[i] = f(r)
	}
	_, med, _ := quartiles(v)
	return med
}

// endToEnd derives the end-to-end metrics, each the median over the
// rounds (set-up time over every set-up of the run), so a round disturbed
// by the host moves none of them. Peak memory is the run's peak, the
// largest of its rounds'.
func endToEnd(rounds []roundResult) map[string]metric {
	per := func(f func(roundResult) float64) float64 { return medianOf(rounds, f) }
	rss := 0.0
	var setups []float64
	for _, r := range rounds {
		rss = max(rss, r.PeakRSS/(1<<20))
		setups = append(setups, r.Setups...)
	}
	_, setup, _ := quartiles(setups)
	return map[string]metric{
		"ops_per_s":       {per(func(r roundResult) float64 { return float64(r.Ops) / r.Wall }), "ops/s"},
		"cpu_us_per_op":   {per(func(r roundResult) float64 { return r.CPU * 1e6 / float64(r.Ops) }), "us"},
		"alloc_kb_per_op": {per(func(r roundResult) float64 { return r.Alloc / 1024 / float64(r.Ops) }), "KB"},
		"peak_rss_mb":     {rss, "MB"},
		"setup_s":         {setup, "s"},
	}
}

// perLayer derives the per-layer metrics: runtime and set-up timings from
// the untraced rounds, CPU and allocation by layer from the profiled round,
// and the model's counters from the traced round. The tracer's overhead is
// the traced round's wall time per op over the untraced rounds' median, so
// one round's host noise does not stand in for it.
func perLayer(rounds []roundResult, tr roundResult) map[string]metric {
	per := func(f func(roundResult) float64) float64 { return medianOf(rounds, f) }
	out := map[string]metric{
		"runtime.gc_cpu_s":    {per(func(r roundResult) float64 { return r.GCCPU }), "cpu-s"},
		"runtime.gc_cycles":   {per(func(r roundResult) float64 { return r.GCCycles }), "count"},
		"workload.gen_s":      {per(func(r roundResult) float64 { return r.Gen }), "s"},
		"stack.build_s":       {per(func(r roundResult) float64 { return r.Build }), "s"},
		"trace.overhead_frac": {tr.Wall/float64(tr.Ops)/per(func(r roundResult) float64 { return r.Wall / float64(r.Ops) }) - 1, "ratio"},
		"profile.cpu_s":       {sum(tr.CPUByLayer), "cpu-s"},
		"profile.alloc_mb":    {sum(tr.AllocByLayer), "MB"},
	}
	for _, b := range profileBuckets() {
		out[bucketMetric(b, "cpu_s")] = metric{tr.CPUByLayer[b], "cpu-s"}
		out[bucketMetric(b, "alloc_mb")] = metric{tr.AllocByLayer[b], "MB"}
	}
	for _, c := range counterSpecs {
		out[c.name] = metric{tr.Counters[c.name], c.unit}
	}
	return out
}

func sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

// spec is the part of BENCHMARK.json the program checks itself against, so
// the metrics it prints and the metrics the file declares cannot drift.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark spec: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

func (s spec) check(got map[string]metric, traced bool) error {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	var problems []string
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+w.Name)
		case m.Unit != w.Unit:
			problems = append(problems, fmt.Sprintf("%s unit %q, declared %q", w.Name, m.Unit, w.Unit))
		}
	}
	if len(got) != len(want) {
		problems = append(problems, fmt.Sprintf("%d metrics printed, %d declared", len(got), len(want)))
	}
	if len(problems) > 0 {
		return fmt.Errorf("metrics disagree with BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}
