// Benchmarks regenerating every table and figure of the paper (one bench
// per experiment), plus ablations of the design choices DESIGN.md calls
// out. Each iteration executes the full scenario in the discrete-event
// simulator; the reported wall time is simulator throughput, and the
// experiment's own result (virtual seconds, slopes) is attached as custom
// metrics so `go test -bench` output doubles as a results table.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crt"
	"repro/internal/experiments"
	"repro/internal/fluid"
	"repro/internal/knative"
	"repro/internal/kube"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/wms"
	"repro/internal/workload"
)

func quickOpts() experiments.Options {
	o := experiments.QuickOptions()
	o.Reps = 1
	return o
}

// BenchmarkFig1ContainerReuse regenerates Fig. 1: docker-per-task vs
// knative container reuse over a sequential task sweep.
func BenchmarkFig1ContainerReuse(b *testing.B) {
	o := quickOpts()
	var res experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig1(o)
	}
	b.ReportMetric(res.DockerFit.Slope, "docker_s/task")
	b.ReportMetric(res.KnativeFit.Slope, "knative_s/task")
	b.ReportMetric(res.SpeedupPct, "reduction_%")
}

// BenchmarkFig2ParallelScaling regenerates Fig. 2: parallel-task scaling of
// native, knative, and condor-container execution.
func BenchmarkFig2ParallelScaling(b *testing.B) {
	o := quickOpts()
	var res experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig2(o)
	}
	b.ReportMetric(res.NativeFit.Slope, "native_s/task")
	b.ReportMetric(res.KnativeFit.Slope, "knative_s/task")
	b.ReportMetric(res.ContainerFit.Slope, "container_s/task")
}

// BenchmarkFig5TradeoffPoint regenerates the centre point of Fig. 5's
// ternary sweep (equal thirds of each mode).
func BenchmarkFig5TradeoffPoint(b *testing.B) {
	o := quickOpts()
	mix := experiments.Mix{Native: 1.0 / 3, Container: 1.0 / 3, Serverless: 1.0 / 3}
	var res experiments.MixResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunMix(o, mix)
	}
	b.ReportMetric(res.MakespanSecs, "virtual_s")
}

// BenchmarkFig6Scenarios regenerates each of Fig. 6's five highlighted bars.
func BenchmarkFig6Scenarios(b *testing.B) {
	for _, sc := range experiments.Fig6Mixes() {
		sc := sc
		b.Run(sc.Label, func(b *testing.B) {
			o := quickOpts()
			var res experiments.MixResult
			for i := 0; i < b.N; i++ {
				res = experiments.RunMix(o, sc.Mix)
			}
			b.ReportMetric(res.MakespanSecs, "virtual_s")
		})
	}
}

// BenchmarkColdStart regenerates the Fig. 1 cold-start annotation (1.48 s
// in the paper).
func BenchmarkColdStart(b *testing.B) {
	o := quickOpts()
	var res experiments.ColdStartResult
	for i := 0; i < b.N; i++ {
		res = experiments.ColdStart(o)
	}
	b.ReportMetric(res.ColdSecs, "cold_virtual_s")
	b.ReportMetric(res.WarmSecs, "warm_virtual_s")
}

// ---- Ablations ----

// benchChain runs one 10-task workflow in the given mode and returns its
// virtual makespan.
func benchChain(seed uint64, prm config.Params, mode wms.Mode, policy core.DeployPolicy) time.Duration {
	s := core.NewStack(seed, prm)
	s.RegisterTransformation(workload.MatmulTransformation, prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
	var makespan time.Duration
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		if mode == wms.ModeServerless {
			if err := s.DeployFunction(p, workload.MatmulTransformation, policy); err != nil {
				panic(err)
			}
		}
		wf := workload.Chain("bench", 10, prm.MatrixBytes)
		res, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(mode))
		if err != nil {
			panic(err)
		}
		makespan = res.Makespan()
	})
	s.Env.Run()
	return makespan
}

// BenchmarkAblationNegotiation compares the per-job negotiation model
// (default; overheads add to the makespan) against a strict global cycle
// (which quantizes sequential workflows and hides overheads).
func BenchmarkAblationNegotiation(b *testing.B) {
	for _, mode := range []struct {
		name   string
		perJob bool
	}{{"per-job", true}, {"global-cycle", false}} {
		b.Run(mode.name, func(b *testing.B) {
			prm := config.Default()
			prm.PerJobNegotiation = mode.perJob
			var m time.Duration
			for i := 0; i < b.N; i++ {
				m = benchChain(1, prm, wms.ModeContainer, core.DeployPolicy{})
			}
			b.ReportMetric(m.Seconds(), "virtual_s")
		})
	}
}

// BenchmarkAblationPreStaging compares pre-staged images+containers
// (min-scale ≥ 1, pre-pull) with fully deferred provisioning
// (initial-scale 0, no pre-pull) — the §IV-2 knob. The signal lives in the
// first task's execution time: deferred provisioning pays the image pull
// and cold start there.
func BenchmarkAblationPreStaging(b *testing.B) {
	policies := []struct {
		name   string
		policy core.DeployPolicy
	}{
		{"pre-staged", core.ReusePolicy()},
		{"deferred", core.DeployPolicy{ContainerConcurrency: 1, CapCores: 1}},
	}
	for _, pc := range policies {
		pc := pc
		b.Run(pc.name, func(b *testing.B) {
			prm := config.Default()
			var firstTask float64
			for i := 0; i < b.N; i++ {
				firstTask = firstTaskExecSecs(1, prm, pc.policy)
			}
			b.ReportMetric(firstTask, "first_task_virtual_s")
		})
	}
}

// firstTaskExecSecs runs a serverless chain and returns the first task's
// on-worker execution time (start to finish, including the invocation).
func firstTaskExecSecs(seed uint64, prm config.Params, policy core.DeployPolicy) float64 {
	s := core.NewStack(seed, prm)
	s.RegisterTransformation(workload.MatmulTransformation, prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
	var secs float64
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		if err := s.DeployFunction(p, workload.MatmulTransformation, policy); err != nil {
			panic(err)
		}
		wf := workload.Chain("bench", 3, prm.MatrixBytes)
		res, err := s.Engine.RunWorkflow(p, wf, wms.AssignAll(wms.ModeServerless))
		if err != nil {
			panic(err)
		}
		first := res.Tasks[wf.TaskIDs()[0]]
		secs = (first.FinishedAt - first.StartedAt).Seconds()
	})
	s.Env.Run()
	return secs
}

// BenchmarkAblationPassByValue isolates the §IV-3 pass-by-value codec cost
// against an ideal zero-cost data plane (e.g. a shared filesystem read).
func BenchmarkAblationPassByValue(b *testing.B) {
	for _, pc := range []struct {
		name  string
		codec float64
	}{{"by-value", config.Default().PayloadCodecBps}, {"shared-fs", 0}} {
		pc := pc
		b.Run(pc.name, func(b *testing.B) {
			prm := config.Default()
			prm.PayloadCodecBps = pc.codec
			var m time.Duration
			for i := 0; i < b.N; i++ {
				m = benchChain(1, prm, wms.ModeServerless, core.ReusePolicy())
			}
			b.ReportMetric(m.Seconds(), "virtual_s")
		})
	}
}

// BenchmarkAblationUplink varies the submit-node uplink — the mechanism
// behind Fig. 2's container slope.
func BenchmarkAblationUplink(b *testing.B) {
	for _, uc := range []struct {
		name string
		bps  float64
	}{{"1Gbps", 1e9 / 8}, {"10Gbps", 10e9 / 8}} {
		uc := uc
		b.Run(uc.name, func(b *testing.B) {
			o := quickOpts()
			o.Prm.SubmitUplinkBps = uc.bps
			var res experiments.Fig2Result
			for i := 0; i < b.N; i++ {
				res = experiments.Fig2(o)
			}
			b.ReportMetric(res.ContainerFit.Slope, "container_s/task")
		})
	}
}

// BenchmarkAblationContainerConcurrency compares one-request-per-container
// isolation (cc=1) against co-located tasks (cc=8) under a parallel burst.
func BenchmarkAblationContainerConcurrency(b *testing.B) {
	for _, cc := range []int{1, 8} {
		cc := cc
		b.Run(map[int]string{1: "cc1", 8: "cc8"}[cc], func(b *testing.B) {
			var burstSecs float64
			for i := 0; i < b.N; i++ {
				burstSecs = burstLatency(uint64(1), cc)
			}
			b.ReportMetric(burstSecs, "burst_virtual_s")
		})
	}
}

// burstLatency fires 16 concurrent invocations at a service capped at two
// replicas and returns the time until all complete.
func burstLatency(seed uint64, cc int) float64 {
	prm := config.Default()
	s := core.NewStack(seed, prm)
	s.RegisterTransformation(workload.MatmulTransformation, prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
	var total time.Duration
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		policy := core.DeployPolicy{
			MinScale: 2, InitialScale: 2, MaxScale: 2,
			ContainerConcurrency: cc, PrePullAllNodes: true, CapCores: 1,
		}
		if err := s.DeployFunction(p, workload.MatmulTransformation, policy); err != nil {
			panic(err)
		}
		svc, _ := s.Service(workload.MatmulTransformation)
		start := p.Now()
		wg := sim.NewWaitGroup(s.Env)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			s.Env.Go("client", func(cp *sim.Proc) {
				defer wg.Done()
				_, _ = svc.Invoke(cp, knative.Request{
					From: cluster.SubmitNodeName, PayloadIn: 2 * prm.MatrixBytes,
					PayloadOut: prm.MatrixBytes, Work: 0.42,
				})
			})
		}
		wg.Wait(p)
		total = p.Now() - start
	})
	s.Env.Run()
	return total.Seconds()
}

// ---- Placement benchmarks ----

// BenchmarkKubePlacement measures the scheduler's placement hot path at
// cluster scale: waves of one-core pods pack an N-node cluster to CPU
// capacity and churn, with a free control plane and zero scheduler latency
// so wall time is dominated by pickNode (filter + score over candidates)
// and the pod-lifecycle events. The sampled sub-bench scores 10% of nodes
// (floor 100) — the scale sweep's configuration — against the exhaustive
// default; compare the ns/placement lines.
func BenchmarkKubePlacement(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		nodes   int
		percent int
	}{
		{"nodes=1000", 1000, 0},
		{"nodes=5000", 5000, 0},
		{"nodes=5000/sampled", 5000, 10},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) { benchKubePlacement(b, cfg.nodes, cfg.percent) })
	}
}

func benchKubePlacement(b *testing.B, nodes, samplePercent int) {
	prm := config.Default()
	prm.WorkerNodes = nodes
	prm.SchedulerLatency = 0
	prm.SchedSamplePercent = samplePercent
	env := sim.NewEnv(1)
	cl := cluster.New(env, prm)
	reg := registry.New(cl.Net)
	reg.Push(registry.NewImage("fn", []int64{1}, 1))
	k := kube.New(env, cl, crt.NewSet(env, cl, reg, prm), prm)
	k.Start()
	env.Go("prepull", func(p *sim.Proc) {
		for _, w := range k.Workers() {
			if err := k.Runtime(w).PullImage(p, "fn"); err != nil {
				panic(err)
			}
		}
	})
	env.Run()

	waveCap := nodes * prm.CoresPerNode
	name := 0
	b.ResetTimer()
	for placed := 0; placed < b.N; {
		n := waveCap
		if rest := b.N - placed; rest < n {
			n = rest
		}
		env.Go("driver", func(p *sim.Proc) {
			pods := make([]*kube.Pod, 0, n)
			for i := 0; i < n; i++ {
				pod, err := k.CreatePod(kube.PodSpec{
					Name: fmt.Sprintf("fn-%d", name+i), Image: "fn", CPURequest: 1, MemMB: 64,
				})
				if err != nil {
					panic(err)
				}
				pods = append(pods, pod)
			}
			for _, pod := range pods {
				if err := k.WaitReady(p, pod); err != nil {
					panic(err)
				}
			}
			for _, pod := range pods {
				k.DeletePod(pod.Spec.Name)
			}
		})
		env.Run()
		name += n
		placed += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/placement")
}

// ---- Replication-runner benchmarks ----

// runnerBenchReps is the repetition count the runner benchmarks fan out —
// large enough to keep every worker busy at the compared pool sizes.
const runnerBenchReps = 8

// BenchmarkRunnerWorkers measures replication throughput (reps/s of the
// Fig. 5 centre point) at fixed pool sizes; compare the workers=1 and
// workers=4 lines to see the runner's scaling on this host.
func BenchmarkRunnerWorkers(b *testing.B) {
	mix := experiments.Mix{Native: 1.0 / 3, Container: 1.0 / 3, Serverless: 1.0 / 3}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := quickOpts()
			o.Reps = runnerBenchReps
			o.Workers = workers
			start := time.Now()
			for i := 0; i < b.N; i++ {
				experiments.RunMix(o, mix)
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(runnerBenchReps*b.N)/elapsed, "reps/s")
			}
		})
	}
}

// BenchmarkRunnerSpeedup runs the same seeded replication sweep at
// workers=1 and workers=4 within one benchmark and reports the wall-clock
// speedup directly (the CI bench-smoke step asserts nothing, but the metric
// makes scaling regressions visible in the -bench output).
func BenchmarkRunnerSpeedup(b *testing.B) {
	mix := experiments.Mix{Native: 1.0 / 3, Container: 1.0 / 3, Serverless: 1.0 / 3}
	o := quickOpts()
	o.Reps = runnerBenchReps
	var seqSecs, parSecs float64
	for i := 0; i < b.N; i++ {
		o.Workers = 1
		t0 := time.Now()
		seq := experiments.RunMix(o, mix)
		seqSecs += time.Since(t0).Seconds()

		o.Workers = 4
		t0 = time.Now()
		par := experiments.RunMix(o, mix)
		parSecs += time.Since(t0).Seconds()

		if seq != par {
			b.Fatalf("worker counts disagree: %+v vs %+v", seq, par)
		}
	}
	if parSecs > 0 {
		b.ReportMetric(float64(runnerBenchReps*b.N)/parSecs, "reps/s")
		b.ReportMetric(seqSecs/parSecs, "speedup_vs_workers1")
	}
}

// ---- Workflow engine benchmarks ----

// BenchmarkPollRelease measures the DAGMan poll loop's host cost per task:
// a FanOutFanIn DAG of native tasks runs to completion under the default
// poll execution mode on the execmode study's 32-node x 16-core cluster.
// Stack and DAG construction are excluded. Compare the two sizes' ns/task:
// a release path that rescans the DAG every tick costs per task in
// proportion to tasks x ticks, so the larger DAG's figure would grow
// several-fold; an incremental one keeps the two close.
func BenchmarkPollRelease(b *testing.B) {
	for _, size := range []struct{ width, depth int }{{128, 20}, {256, 40}} {
		size := size
		b.Run(fmt.Sprintf("fan=%dx%d", size.width, size.depth), func(b *testing.B) {
			prm := config.Default()
			prm.WorkerNodes = 32
			prm.CoresPerNode = 16
			prm.ExecMode = config.ExecPoll.String()
			var elapsed time.Duration
			tasks := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := core.NewStack(uint64(i+1), prm)
				s.RegisterTransformation(workload.MatmulTransformation,
					prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
				wf := workload.FanOutFanIn(sim.NewRNG(uint64(i+1)), "fan", size.width, size.depth,
					4096, workload.UniformScale(0.5, 1.5))
				var runErr error
				s.Env.Go("main", func(p *sim.Proc) {
					defer s.Shutdown()
					_, runErr = s.Engine.RunWorkflow(p, wf, wms.AssignAll(wms.ModeNative))
				})
				b.StartTimer()
				t0 := time.Now()
				s.Env.Run()
				elapsed += time.Since(t0)
				if runErr != nil {
					b.Fatal(runErr)
				}
				tasks += wf.Len()
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(tasks), "ns/task")
		})
	}
}

// ---- Simulator micro-benchmarks ----

// BenchmarkSimKernelEvents measures raw event throughput of the DES kernel.
func BenchmarkSimKernelEvents(b *testing.B) {
	env := sim.NewEnv(1)
	env.Go("ticker", func(p *sim.Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.RunFor(time.Millisecond)
	}
}

// BenchmarkSimKernelMillionTimers is the headline far-future stress: a
// million timers spread over five virtual minutes — the cluster-scale
// autoscaler-window / retry-backoff population — armed and then drained to
// completion. The heap-only sub-bench ablates the timer wheel (every arm
// and pop pays the full heap depth); compare the ns/timer lines.
func BenchmarkSimKernelMillionTimers(b *testing.B) {
	const nTimers = 1 << 20
	for _, cfg := range []struct {
		name     string
		heapOnly bool
	}{{"wheel", false}, {"heap-only", true}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			// One Env across iterations: after the first arm+drain the
			// event free list holds the whole population, so the steady
			// state is allocation-free and the numbers measure the queue
			// structures, not the allocator.
			env := sim.NewEnv(1)
			if cfg.heapOnly {
				env.DisableTimerWheel()
			}
			rng := sim.NewRNG(42)
			fired := 0
			cb := func() { fired++ }
			// Warm-up drain: populate the free list so even a single
			// timed iteration measures the steady state.
			for j := 0; j < nTimers; j++ {
				env.At(env.Now()+time.Duration(1+rng.Intn(int(300*time.Second))), cb)
			}
			env.Run()
			fired = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := env.Now()
				for j := 0; j < nTimers; j++ {
					env.At(base+time.Duration(1+rng.Intn(int(300*time.Second))), cb)
				}
				env.Run()
			}
			b.StopTimer()
			if fired != b.N*nTimers {
				b.Fatalf("fired %d, want %d", fired, b.N*nTimers)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nTimers, "ns/timer")
		})
	}
}

// BenchmarkSimKernelTimerChurn measures the cancellation-heavy regime: a
// standing population of far-future timers where 90% are cancelled and
// re-armed before they fire (the keepalive/backoff lifecycle). The wheel
// collects cancellations lazily in O(1) amortized; heap-only pays
// compaction sweeps over the whole queue.
func BenchmarkSimKernelTimerChurn(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		heapOnly bool
	}{{"wheel", false}, {"heap-only", true}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			env := sim.NewEnv(1)
			if cfg.heapOnly {
				env.DisableTimerWheel()
			}
			rng := sim.NewRNG(7)
			cb := func() {}
			const window = 4096
			ring := make([]sim.Timer, window)
			arm := func() sim.Timer {
				return env.After(time.Duration(1+rng.Intn(int(10*time.Second))), cb)
			}
			for i := range ring {
				ring[i] = arm()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := i & (window - 1)
				if rng.Intn(10) != 0 { // 90% cancelled before firing
					ring[slot].Stop()
				}
				ring[slot] = arm()
				if i&1023 == 0 {
					env.RunFor(time.Millisecond)
				}
			}
			b.StopTimer()
			env.Run()
		})
	}
}

// BenchmarkFluidServer measures the processor-sharing model under churn.
func BenchmarkFluidServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv(uint64(i))
		srv := fluid.New(env, "cpu", 8)
		for j := 0; j < 64; j++ {
			j := j
			env.Go("job", func(p *sim.Proc) {
				p.Sleep(time.Duration(j) * 10 * time.Millisecond)
				srv.Run(p, 1, 0)
			})
		}
		env.Run()
	}
}

// ---- Extension benchmarks (the paper's §VIII and §IX future work) ----

// BenchmarkExtDataMovement runs the §VIII communication-overhead study.
func BenchmarkExtDataMovement(b *testing.B) {
	o := quickOpts()
	var res experiments.DataMovementResult
	for i := 0; i < b.N; i++ {
		res = experiments.DataMovement(o)
	}
	for _, row := range res.Rows {
		if row.Mode == wms.ModeServerless {
			b.ReportMetric(row.TotalMB, row.Staging.String()+"_total_MB")
		}
	}
}

// BenchmarkExtResizing runs the §IX-C task-resizing study.
func BenchmarkExtResizing(b *testing.B) {
	o := quickOpts()
	var res experiments.ResizingResult
	for i := 0; i < b.N; i++ {
		res = experiments.Resizing(o)
	}
	if len(res.Rows) >= 2 {
		b.ReportMetric(res.Rows[0].Makespan, "split1_virtual_s")
		b.ReportMetric(res.Rows[len(res.Rows)-1].Makespan, "splitN_virtual_s")
	}
}

// BenchmarkExtRedirection runs the §IX-D task-redirection study.
func BenchmarkExtRedirection(b *testing.B) {
	o := quickOpts()
	var res experiments.RedirectionResult
	for i := 0; i < b.N; i++ {
		res = experiments.Redirection(o)
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.MeanSec, row.Policy+"_mean_s")
	}
}

// BenchmarkExtClustering runs the §II-C task-clustering study.
func BenchmarkExtClustering(b *testing.B) {
	o := quickOpts()
	var res experiments.ClusteringResult
	for i := 0; i < b.N; i++ {
		res = experiments.Clustering(o)
	}
	if len(res.Rows) >= 2 {
		b.ReportMetric(res.Rows[0].Makespan, "unclustered_virtual_s")
		b.ReportMetric(res.Rows[1].Makespan, "clustered_virtual_s")
	}
}

// BenchmarkExtMontage runs the §IX-A complex-workflow study.
func BenchmarkExtMontage(b *testing.B) {
	o := quickOpts()
	var res experiments.MontageResult
	for i := 0; i < b.N; i++ {
		res = experiments.Montage(o)
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Makespan, row.Mode.String()+"_virtual_s")
	}
}

// BenchmarkExtPlacement runs the internal/sched policy sweep and reports
// registry egress per kube policy.
func BenchmarkExtPlacement(b *testing.B) {
	o := quickOpts()
	var res experiments.PlacementResult
	for i := 0; i < b.N; i++ {
		res = experiments.Placement(o)
	}
	for _, row := range res.Rows {
		if row.Mode == wms.ModeServerless {
			b.ReportMetric(row.PulledMB, row.Policy+"_pulled_MB")
		}
	}
}

// BenchmarkExtIsolation quantifies the Fig. 5 isolation axis under a noisy
// co-tenant.
func BenchmarkExtIsolation(b *testing.B) {
	o := quickOpts()
	var res experiments.IsolationResult
	for i := 0; i < b.N; i++ {
		res = experiments.Isolation(o)
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Slowdown, row.Mode.String()+"_slowdown")
	}
}
