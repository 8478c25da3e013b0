package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/crt"
	"repro/internal/knative"
	"repro/internal/kube"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// A workloadFn runs one round of a workload: it builds the stack from the
// seed, calls r.begin when the timed phase starts, runs the simulation to
// the end and reports what it produced. Everything before r.begin is
// set-up. When r.begin returns false the round was a set-up rehearsal:
// the workload shuts its stack down without starting the timed phase, and
// its outcome is discarded.
type workloadFn func(seed uint64, r *round) outcome

// round is what the runner hands a workload for one round.
type round struct {
	traced bool
	tracer *trace.Tracer
	begin  func() bool
	// build and gen are the host time of the stack constructors and of
	// input generation, both part of set-up.
	build, gen time.Duration
}

// attach gives the round's environment a span tracer when the round is
// traced. Call it right after sim.NewEnv, before any process runs.
func (r *round) attach(env *sim.Env) {
	if r.traced {
		r.tracer = trace.New(env)
	}
}

// outcome is a round's simulated result.
type outcome struct {
	ops      int
	digests  map[string]string
	counters map[string]float64
	err      error // the first check that failed
}

// roundResult is one round's outcome with its host measurements. A round
// runs in a process of its own (see runBenchmark), which reports it as
// JSON; times are in seconds and memory in bytes.
type roundResult struct {
	Ops      int                `json:"ops"`
	Err      string             `json:"err,omitempty"`
	Digests  map[string]string  `json:"digests"`
	Counters map[string]float64 `json:"counters"`

	// Setups are the host times of the round's set-ups, rehearsals first.
	Setups   []float64 `json:"setups"`
	Wall     float64   `json:"wall"`
	CPU      float64   `json:"cpu"`
	Build    float64   `json:"build"`
	Gen      float64   `json:"gen"`
	Alloc    float64   `json:"alloc"`
	GCCPU    float64   `json:"gc_cpu"`
	GCCycles float64   `json:"gc_cycles"`
	// PeakRSS is the round process's peak resident set, filled in by the
	// parent from the child's resource usage.
	PeakRSS float64 `json:"peak_rss"`

	// Traced rounds only: CPU seconds and allocated MB by profile bucket.
	CPUByLayer   map[string]float64 `json:"cpu_by_layer,omitempty"`
	AllocByLayer map[string]float64 `json:"alloc_by_layer,omitempty"`
}

// snapshot is the host's process counters at one instant.
type snapshot struct {
	at              time.Time
	cpu             time.Duration
	alloc           uint64
	gcCPU, gcCycles float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func snap() snapshot {
	metrics.Read(runtimeSamples)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return snapshot{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    runtimeSamples[0].Value.Uint64(),
		gcCPU:    runtimeSamples[1].Value.Float64(),
		gcCycles: float64(runtimeSamples[2].Value.Uint64()),
	}
}

// runRound runs one round and measures it. It first rehearses the
// workload's set-up setups-1 times, then collects the garbage the
// rehearsals left and returns its memory to the operating system, so the
// round's timed phase and its peak resident set are as in a fresh
// process. A traced round also attaches the span tracer, records CPU and
// allocation profiles of its timed phase, checks that every span ended and
// prints the span table to w.
func runRound(fn workloadFn, seed uint64, setups int, traced bool, w io.Writer) roundResult {
	var times []float64
	for i := 1; i < setups; i++ {
		t0 := time.Now()
		fn(seed, &round{begin: func() bool {
			times = append(times, time.Since(t0).Seconds())
			return false
		}})
	}
	debug.FreeOSMemory()
	r := &round{traced: traced}
	var b snapshot
	var cpuProf bytes.Buffer
	var heap0 []byte
	began := false
	t0 := time.Now()
	var setup time.Duration
	r.begin = func() bool {
		setup = time.Since(t0)
		// The timed phase starts from a collected heap, so when its
		// collections fall, and with them its peak memory, does not
		// depend on how the set-up's garbage happened to be collected.
		runtime.GC()
		if traced {
			heap0 = heapProfile()
			if err := pprof.StartCPUProfile(&cpuProf); err != nil {
				panic(fmt.Sprintf("start CPU profile: %v", err))
			}
		}
		began = true
		b = snap()
		return true
	}
	out := fn(seed, r)
	e := snap()
	if !began {
		panic("workload never began its timed phase")
	}
	if out.ops == 0 {
		panic("workload round attempted no operations")
	}
	rr := roundResult{
		Ops:      out.ops,
		Digests:  out.digests,
		Counters: out.counters,
		Setups:   append(times, setup.Seconds()),
		Wall:     e.at.Sub(b.at).Seconds(),
		CPU:      (e.cpu - b.cpu).Seconds(),
		Build:    r.build.Seconds(),
		Gen:      r.gen.Seconds(),
		Alloc:    float64(e.alloc - b.alloc),
		GCCPU:    e.gcCPU - b.gcCPU,
		GCCycles: e.gcCycles - b.gcCycles,
	}
	if traced {
		pprof.StopCPUProfile()
		heap1 := heapProfile()
		var err error
		if rr.CPUByLayer, err = attribute(cpuProf.Bytes(), nil, "cpu", 1e-9); err != nil {
			panic(fmt.Sprintf("CPU profile: %v", err))
		}
		if rr.AllocByLayer, err = attribute(heap1, heap0, "alloc_space", 1.0/(1<<20)); err != nil {
			panic(fmt.Sprintf("allocation profile: %v", err))
		}
		if out.err == nil {
			out.err = spansEnded(r.tracer)
		}
		writeSpanTable(w, r.tracer)
	}
	if out.err != nil {
		rr.Err = out.err.Error()
	}
	return rr
}

// heapProfile returns the allocation profile as of a fresh collection, so
// it includes every allocation up to now.
func heapProfile() []byte {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		panic(fmt.Sprintf("write allocation profile: %v", err))
	}
	return buf.Bytes()
}

// spansEnded is the traced round's check that every span was closed.
func spansEnded(tr *trace.Tracer) error {
	open := 0
	var first *trace.Span
	for _, sp := range tr.Spans() {
		if !sp.Ended() {
			if open == 0 {
				first = sp
			}
			open++
		}
	}
	if open > 0 {
		return fmt.Errorf("%d spans never ended, first %s/%s at %v", open, first.Substrate(), first.Name(), first.Start())
	}
	return nil
}

// writeSpanTable prints span count, total and self time per substrate, in
// virtual seconds. Self time is a span's duration minus the part of it its
// child spans cover.
func writeSpanTable(w io.Writer, tr *trace.Tracer) {
	spans := tr.Spans()
	children := map[trace.SpanID][]*trace.Span{}
	for _, sp := range spans {
		if sp.Parent() != 0 {
			children[sp.Parent()] = append(children[sp.Parent()], sp)
		}
	}
	type row struct {
		count       int
		total, self time.Duration
	}
	rows := map[string]*row{}
	for _, sp := range spans {
		r := rows[sp.Substrate()]
		if r == nil {
			r = &row{}
			rows[sp.Substrate()] = r
		}
		r.count++
		r.total += sp.Duration()
		r.self += sp.Duration() - covered(sp, children[sp.ID()])
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s %10s %14s %14s\n", "substrate", "spans", "total_sim_s", "self_sim_s")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "%-10s %10d %14.3f %14.3f\n", n, r.count, r.total.Seconds(), r.self.Seconds())
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent *trace.Span, kids []*trace.Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start(), parent.Start()), min(k.EndTime(), parent.EndTime())
		if k.Ended() && parent.Ended() && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// counterSpecs are the model's counters every traced round reports. They
// are deterministic: a change that only makes the simulator faster leaves
// them identical. A counter a workload has no use for reads 0.
var counterSpecs = []struct{ name, unit string }{
	{"sim.virtual_s", "sim-s"},
	{"sim.alive_end", "count"},
	{"knative.requests", "count"},
	{"knative.completed", "count"},
	{"knative.cold_starts", "count"},
	{"knative.shed", "count"},
	{"knative.deadline_drops", "count"},
	{"knative.queue_wait_s", "sim-s"},
	{"knative.coldstart_wait_s", "sim-s"},
	{"kube.placements", "count"},
	{"kube.picks", "count"},
	{"kube.pick_yield", "ratio"},
	{"cplane.reads", "count"},
	{"cplane.writes", "count"},
	{"cplane.queue_wait_s", "sim-s"},
	{"cplane.max_queue_wait_s", "sim-s"},
	{"crt.containers_created", "count"},
	{"registry.pulls", "count"},
	{"condor.jobs_completed", "count"},
	{"wms.tasks", "count"},
	{"wms.attempts", "count"},
	{"wms.makespan_s", "sim-s"},
	{"wms.poll_wait_s", "sim-s"},
	{"simnet.bytes_sent", "B"},
	{"trace.spans", "count"},
}

// stackCounters reads the counters the substrates shared by every workload
// expose, and those the traced round's spans give.
func stackCounters(env *sim.Env, net *simnet.Network, k *kube.Kube, rts crt.Set,
	reg *registry.Registry, services []*knative.Service, tr *trace.Tracer) map[string]float64 {
	c := map[string]float64{
		"sim.virtual_s":     env.Now().Seconds(),
		"sim.alive_end":     float64(env.Alive()),
		"kube.picks":        float64(k.Picks()),
		"registry.pulls":    float64(reg.Pulls()),
		"simnet.bytes_sent": float64(net.TotalBytesSent()),
	}
	cp := k.ControlPlane().Stats()
	c["cplane.reads"] = float64(cp.Reads)
	c["cplane.writes"] = float64(cp.Writes)
	c["cplane.queue_wait_s"] = cp.QueueWait.Seconds()
	c["cplane.max_queue_wait_s"] = cp.MaxQueueWait.Seconds()
	for _, rt := range rts {
		c["crt.containers_created"] += float64(rt.CreatedTotal())
	}
	for _, svc := range services {
		ov := svc.Overload()
		c["knative.requests"] += float64(svc.Requests)
		c["knative.cold_starts"] += float64(svc.ColdStarts)
		c["knative.shed"] += float64(ov.ShedFull + ov.ShedWait)
		c["knative.deadline_drops"] += float64(ov.DeadlineDrops)
	}
	if tr == nil {
		return c
	}
	c["trace.spans"] = float64(tr.Len())
	for _, sp := range tr.Spans() {
		switch sub, name := sp.Substrate(), sp.Name(); {
		case sub == "knative" && name == "invoke":
			if _, failed := sp.Label("status"); !failed {
				c["knative.completed"]++
			}
		case sub == "knative" && name == "queue":
			c["knative.queue_wait_s"] += sp.Duration().Seconds()
		case sub == "knative" && name == "coldstart":
			c["knative.coldstart_wait_s"] += sp.Duration().Seconds()
		case sub == "sched" && name == "place":
			if layer, _ := sp.Label("layer"); layer == "kube" {
				c["kube.placements"]++
			}
		}
	}
	if c["kube.picks"] > 0 {
		c["kube.pick_yield"] = c["kube.placements"] / c["kube.picks"]
	}
	return c
}

// digest hashes a round's simulated outputs in a fixed order.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digest) str(s string) {
	d.int(int64(len(s)))
	io.WriteString(d.h, s)
}

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }
