package kube

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/registry"
	"repro/internal/sim"
)

// newFixtureWith is newFixture with a Params mutation hook, for tests that
// need nonzero control-plane constants or a different cluster size.
func newFixtureWith(t *testing.T, mutate func(*config.Params)) *fixture {
	t.Helper()
	env := sim.NewEnv(1)
	prm := config.Default()
	if mutate != nil {
		mutate(&prm)
	}
	cl := cluster.New(env, prm)
	reg := registry.New(cl.Net)
	reg.Push(registry.NewImage("matmul", prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))
	k := New(env, cl, crt.NewSet(env, cl, reg, prm), prm)
	k.Start()
	return &fixture{env: env, cl: cl, reg: reg, k: k, prm: prm}
}

// cpConstants turns on a nonzero control-plane cost model (shared by both
// modes; only CPMode selects the path).
func cpConstants(p *config.Params) {
	p.APIServerQPS = 500
	p.APIServerLatency = time.Millisecond
	p.EtcdCommitLatency = 5 * time.Millisecond
	p.WatchLatency = 20 * time.Millisecond
}

// placementRun schedules the same varied CPU-bound pod sequence under one
// control-plane mode and returns each pod's node plus the virtual time at
// which every pod was ready.
func placementRun(t *testing.T, mode string) (map[string]string, time.Duration) {
	t.Helper()
	f := newFixtureWith(t, func(p *config.Params) {
		p.WorkerNodes = 50
		cpConstants(p)
		p.CPMode = mode
	})
	placed := make(map[string]string)
	var makespan time.Duration
	f.env.Go("client", func(p *sim.Proc) {
		// 250 pods with varied CPU requests (mean 1.25 cores over 400
		// cores of capacity; memory never binds), so least-requested has
		// real displacement decisions to make at every step.
		cpus := []float64{0.5, 1, 1.5, 2}
		var pods []*Pod
		for i := 0; i < 250; i++ {
			pod, err := f.k.CreatePod(PodSpec{
				Name:       fmt.Sprintf("fn-%03d", i),
				Image:      "matmul",
				CPURequest: cpus[i%len(cpus)],
				MemMB:      64,
			})
			if err != nil {
				t.Fatal(err)
			}
			pods = append(pods, pod)
		}
		for _, pod := range pods {
			if err := f.k.WaitReady(p, pod); err != nil {
				t.Fatal(err)
			}
			placed[pod.Spec.Name] = pod.NodeName
			if pod.ReadyAt() <= pod.CreatedAt() {
				t.Errorf("pod %s: ReadyAt %v not after CreatedAt %v",
					pod.Spec.Name, pod.ReadyAt(), pod.CreatedAt())
			}
		}
		makespan = p.Now()
	})
	f.env.Run()
	return placed, makespan
}

// TestBaselineDirectIdenticalPlacements is the differential gate on the
// direct path: with identical cost constants, baseline and direct modes
// must make byte-identical placement decisions — the fast path may only
// move timing, never placement. This holds because placement feasibility
// and scoring read the scheduler's own synchronous accounting (charged at
// bind, before any control-plane propagation), and the serial scheduler
// consumes the creation sequence in the same order under both modes.
func TestBaselineDirectIdenticalPlacements(t *testing.T) {
	base, baseSpan := placementRun(t, "baseline")
	direct, directSpan := placementRun(t, "direct")
	if len(base) != 250 || len(direct) != 250 {
		t.Fatalf("placements: baseline %d, direct %d, want 250", len(base), len(direct))
	}
	for name, node := range base {
		if direct[name] != node {
			t.Errorf("pod %s: baseline → %s, direct → %s", name, node, direct[name])
		}
	}
	if directSpan >= baseSpan {
		t.Errorf("direct makespan %v not faster than baseline %v", directSpan, baseSpan)
	}
}

// TestControlPlaneCostDelaysReadiness: the modelled store path must make
// pods strictly slower to place than the free control plane, and the
// plane's counters must see the traffic.
func TestControlPlaneCostDelaysReadiness(t *testing.T) {
	ready := func(mutate func(*config.Params)) time.Duration {
		f := newFixtureWith(t, mutate)
		var at time.Duration
		f.env.Go("client", func(p *sim.Proc) {
			pod, err := f.k.CreatePod(spec("fn-1"))
			if err != nil {
				t.Fatal(err)
			}
			if err := f.k.WaitReady(p, pod); err != nil {
				t.Fatal(err)
			}
			at = p.Now()
		})
		f.env.Run()
		return at
	}
	free := ready(nil)
	costed := ready(cpConstants)
	// Bind write (svc 2ms + base 1ms + commit 5ms + watch 20ms) + status
	// write on the same path: at least 56ms over the free plane.
	if costed < free+56*time.Millisecond {
		t.Errorf("costed plane ready at %v, free at %v — model added < 56ms", costed, free)
	}
}

// TestControlPlaneStatsCounted: bindings, deletions, and status updates
// all show up as store writes in baseline mode.
func TestControlPlaneStatsCounted(t *testing.T) {
	f := newFixtureWith(t, cpConstants)
	f.env.Go("client", func(p *sim.Proc) {
		pod, err := f.k.CreatePod(spec("fn-1"))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.k.WaitReady(p, pod); err != nil {
			t.Fatal(err)
		}
		f.k.DeletePod("fn-1")
	})
	f.env.Run()
	st := f.k.ControlPlane().Stats()
	if st.Writes != 3 { // bind + status + delete
		t.Errorf("store writes = %d, want 3 (bind, status, delete)", st.Writes)
	}
	if st.AsyncWrites != 0 || st.DirectSends != 0 {
		t.Errorf("baseline mode used the direct path: %+v", st)
	}
}

// TestDeletePodDelayedTeardown: in baseline mode the kubelet observes a
// deletion one propagation delay after DeletePod, but the scheduler's
// accounting releases immediately (the deletion write is what frees the
// requests).
func TestDeletePodDelayedTeardown(t *testing.T) {
	f := newFixtureWith(t, cpConstants)
	f.env.Go("client", func(p *sim.Proc) {
		pod, err := f.k.CreatePod(spec("fn-1"))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.k.WaitReady(p, pod); err != nil {
			t.Fatal(err)
		}
		node := pod.NodeName
		f.k.DeletePod("fn-1")
		if got := f.k.slot(node).reqCPU; got != 0 {
			t.Errorf("requested CPU on %s = %v right after delete, want 0", node, got)
		}
		if pod.Phase() == PhaseDead {
			t.Error("pod already torn down — deletion propagated instantly despite nonzero plane")
		}
		p.Sleep(time.Second)
		if pod.Phase() != PhaseDead {
			t.Errorf("pod phase %v after 1s, teardown never arrived", pod.Phase())
		}
	})
	f.env.Run()
}
