package kube

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// assertAccounting checks the O(1) per-node requested-CPU and pod-count
// accounting against the full pod-store rescans (the seed algorithm) on
// every worker.
func assertAccounting(t *testing.T, f *fixture, when string) {
	t.Helper()
	for _, w := range f.cl.Workers {
		cpu := f.k.requestedScan(w.Name)
		if got := f.k.nodes[w.Index].reqCPU; math.Abs(got-cpu) > 1e-9 {
			t.Errorf("%s: %s: accounted CPU %v != rescan %v", when, w.Name, got, cpu)
		}
		if got, want := f.k.PodsOnNode(w.Name), f.k.podsOnNodeScan(w.Name); got != want {
			t.Errorf("%s: %s: accounted pod count %d != rescan %d", when, w.Name, got, want)
		}
	}
}

// TestCPUFitRegression: the seed scheduler ignored Spec.CPURequest, so a
// 25th one-core pod would bind to a node whose 8 cores are all requested.
// With the CPU-fit filter it must wait, and bind once a pod is deleted.
func TestCPUFitRegression(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		var pods []*Pod
		for i := 0; i < 24; i++ { // 3 nodes × 8 cores, CPURequest 1 each
			pod, err := f.k.CreatePod(spec(fmt.Sprintf("cpu-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			pods = append(pods, pod)
		}
		for _, pod := range pods {
			if err := f.k.WaitReady(p, pod); err != nil {
				t.Fatal(err)
			}
		}
		assertAccounting(t, f, "cluster full")
		extra, err := f.k.CreatePod(spec("cpu-extra"))
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(3 * time.Second)
		if extra.Phase() != PhasePending {
			t.Fatalf("pod bound with all CPU requested: phase %v on %q", extra.Phase(), extra.NodeName)
		}
		f.k.DeletePod("cpu-3")
		if err := f.k.WaitReady(p, extra); err != nil {
			t.Fatalf("pod did not bind after capacity freed: %v", err)
		}
		assertAccounting(t, f, "after retry")
	})
	f.env.Run()
}

// TestPendingPodBindsAfterUncordon: a pod that fits no schedulable node is
// kept Pending (not failed) and retried when a node is uncordoned.
func TestPendingPodBindsAfterUncordon(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		for _, w := range f.k.Workers() {
			f.k.CordonNode(w)
		}
		pod, err := f.k.CreatePod(spec("parked"))
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(2 * time.Second)
		if pod.Phase() != PhasePending {
			t.Fatalf("pod on fully cordoned cluster: phase %v, want Pending", pod.Phase())
		}
		f.k.UncordonNode("worker2")
		if err := f.k.WaitReady(p, pod); err != nil {
			t.Fatalf("pod did not bind after uncordon: %v", err)
		}
		if pod.NodeName != "worker2" {
			t.Errorf("pod bound to %q, want worker2", pod.NodeName)
		}
	})
	f.env.Run()
}

// TestNeverFittingPodFailsFast: a pod that no node could ever take (even
// empty) must fail outright rather than wait forever.
func TestNeverFittingPodFailsFast(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		s := spec("impossible")
		s.CPURequest = float64(f.cl.Workers[0].Cores + 1)
		pod, _ := f.k.CreatePod(s)
		if err := f.k.WaitReady(p, pod); err == nil {
			t.Error("impossible pod became ready")
		}
		if pod.Phase() != PhaseFailed {
			t.Errorf("phase %v, want Failed", pod.Phase())
		}
	})
	f.env.Run()
}

// TestRequestedAccountingMatchesScan drives the pod lifecycle through bind,
// delete, drain, and uncordon, asserting the incremental accounting equals
// the full rescan at every quiescent point.
func TestRequestedAccountingMatchesScan(t *testing.T) {
	f := newFixture(t)
	f.env.Go("client", func(p *sim.Proc) {
		var pods []*Pod
		for i := 0; i < 6; i++ {
			s := spec(fmt.Sprintf("acct-%d", i))
			s.CPURequest = 0.5 + float64(i%3) // 0.5, 1.5, 2.5
			s.MemMB = 256 * (1 + i%2)
			pod, err := f.k.CreatePod(s)
			if err != nil {
				t.Fatal(err)
			}
			pods = append(pods, pod)
		}
		for _, pod := range pods {
			if err := f.k.WaitReady(p, pod); err != nil {
				t.Fatal(err)
			}
		}
		assertAccounting(t, f, "all running")

		f.k.DeletePod("acct-1")
		f.k.DeletePod("acct-4")
		assertAccounting(t, f, "after delete (pre-teardown)")
		p.Sleep(2 * time.Second)
		assertAccounting(t, f, "after teardown")

		victim := pods[0].NodeName
		f.k.DrainNode(victim)
		assertAccounting(t, f, "after drain")
		p.Sleep(2 * time.Second)
		f.k.UncordonNode(victim)
		assertAccounting(t, f, "after uncordon")
	})
	f.env.Run()
}
