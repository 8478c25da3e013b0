package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/kube"
	"repro/internal/registry"
	"repro/internal/sim"
)

// place is the scale study's Kubedirect-style scale-pods pattern on the
// store-mediated control plane with the study's costs: waves of one-core
// pods pack a 4096-node cluster to capacity, each wave followed by a
// delete-and-drain churn. Nothing on this path draws a random number, so
// the run's seed is recorded and changes nothing. An op is one pod
// placement, from create to ready.
const (
	placeNodes = 4096
	placeWaves = 2
)

func place(_ uint64, r *round) outcome {
	prm := config.Default()
	prm.WorkerNodes = placeNodes
	prm.CPMode = config.CPStore.String()
	prm.SchedulerLatency = 500 * time.Microsecond
	prm.APIServerQPS = 500
	prm.APIServerLatency = time.Millisecond
	prm.EtcdCommitLatency = 5 * time.Millisecond
	prm.WatchLatency = 20 * time.Millisecond
	prm.SchedSamplePercent = 10

	// The pod specs are the workload's input.
	t := time.Now()
	wave := placeNodes * prm.CoresPerNode
	specs := make([]kube.PodSpec, placeWaves*wave)
	for i := range specs {
		specs[i] = kube.PodSpec{Name: fmt.Sprintf("fn-%d", i), Image: "fn", CPURequest: 1, MemMB: 64}
	}
	r.gen = time.Since(t)

	t = time.Now()
	env := sim.NewEnv(1)
	r.attach(env)
	cl := cluster.New(env, prm)
	reg := registry.New(cl.Net)
	// A 2-byte image: the workload measures placement, not pulls.
	reg.Push(registry.NewImage("fn", []int64{1}, 1))
	rts := crt.NewSet(env, cl, reg, prm)
	k := kube.New(env, cl, rts, prm)
	k.Start()
	r.build = time.Since(t)

	d := newDigest()
	placed := 0
	var runErr error
	env.Go("waves", func(p *sim.Proc) {
		defer k.Shutdown()
		for _, w := range k.Workers() {
			if err := k.Runtime(w).PullImage(p, "fn"); err != nil {
				runErr = fmt.Errorf("set-up: %w", err)
				return
			}
		}
		if !r.begin() {
			return
		}
		for w := 0; w < placeWaves; w++ {
			pods := make([]*kube.Pod, 0, wave)
			for _, spec := range specs[w*wave : (w+1)*wave] {
				pod, err := k.CreatePod(spec)
				if err != nil {
					runErr = err
					return
				}
				pods = append(pods, pod)
			}
			for _, pod := range pods {
				if err := k.WaitReady(p, pod); err != nil {
					runErr = err
					return
				}
				d.str(pod.Spec.Name)
				d.str(pod.NodeName)
				d.int(int64(pod.ReadyAt() - pod.CreatedAt()))
				placed++
			}
			for _, pod := range pods {
				k.DeletePod(pod.Spec.Name)
			}
			for !drained(cl) {
				p.Sleep(250 * time.Millisecond)
			}
		}
	})
	env.Run()

	out := outcome{ops: len(specs), err: runErr}
	out.counters = stackCounters(env, cl.Net, k, rts, reg, nil, r.tracer)
	out.digests = map[string]string{"outputs": d.sum()}
	switch {
	case out.err != nil:
	case placed != len(specs):
		out.err = fmt.Errorf("%d of %d pods placed", placed, len(specs))
	case env.Alive() != 0:
		out.err = fmt.Errorf("%d processes alive after drain", env.Alive())
	case r.tracer != nil && int(out.counters["kube.placements"]) != placed:
		out.err = fmt.Errorf("trace shows %v placements, harness saw %d", out.counters["kube.placements"], placed)
	}
	return out
}

// drained reports whether every node released its pod memory: the wave's
// deletions have fully landed.
func drained(cl *cluster.Cluster) bool {
	for _, w := range cl.Workers {
		if w.MemUsedMB() != 0 {
			return false
		}
	}
	return true
}
