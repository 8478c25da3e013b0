package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/knative"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wms"
	"repro/internal/workload"
)

// workflow is the paper's own path on core.NewStack: a seeded fan-out/
// fan-in DAG on a 32-node x 16-core cluster, tasks split a third each
// native, container and serverless, under the default DAGMan poll loop.
// The serverless third reuses warm function pods. An op is one completed
// task.
const (
	workflowWidth     = 512
	workflowDepth     = 60
	workflowFileBytes = 4096
	workflowNodes     = 32
	workflowCores     = 16
)

func workflow(seed uint64, r *round) outcome {
	t := time.Now()
	wf := workload.FanOutFanIn(sim.NewRNG(seed), "fan", workflowWidth, workflowDepth,
		workflowFileBytes, workload.UniformScale(0.5, 1.5))
	r.gen = time.Since(t)

	prm := config.Default()
	prm.WorkerNodes = workflowNodes
	prm.CoresPerNode = workflowCores

	t = time.Now()
	s := core.NewStack(seed, prm)
	r.attach(s.Env)
	s.RegisterTransformation(workload.MatmulTransformation,
		prm.ImageLayersBytes[len(prm.ImageLayersBytes)-1])
	r.build = time.Since(t)

	var res *wms.RunResult
	var runErr error
	var poll time.Duration
	s.Env.Go("main", func(p *sim.Proc) {
		defer s.Shutdown()
		if err := s.DeployFunction(p, workload.MatmulTransformation, core.ReusePolicy()); err != nil {
			runErr = fmt.Errorf("set-up: %w", err)
			return
		}
		if !r.begin() {
			return
		}
		// The mode draws come from their own stream so the DAG's draws
		// stay those of the seed alone.
		assign := wms.AssignFractions(sim.NewRNG(^seed), 1, 1, 1)
		if res, runErr = s.Engine.RunWorkflow(p, wf, assign); runErr != nil {
			return
		}
		if r.tracer != nil {
			cp, err := trace.Analyze(r.tracer, wf, "fan")
			if err != nil {
				runErr = err
				return
			}
			poll = cp.Stages[trace.StagePoll]
		}
	})
	s.Env.Run()

	out := outcome{ops: wf.Len(), err: runErr}
	var services []*knative.Service
	if svc, ok := s.Service(workload.MatmulTransformation); ok {
		services = append(services, svc)
	}
	out.counters = stackCounters(s.Env, s.Cluster.Net, s.Kube, s.Runtimes, s.Registry, services, r.tracer)
	if out.err != nil || res == nil { // res is nil after a set-up rehearsal
		return out
	}
	out.counters["condor.jobs_completed"] = float64(s.Pool.Completed())
	out.counters["wms.tasks"] = float64(len(res.Tasks))
	out.counters["wms.makespan_s"] = res.Makespan().Seconds()
	out.counters["wms.poll_wait_s"] = poll.Seconds()

	ids := make([]string, 0, len(res.Tasks))
	for id := range res.Tasks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	d := newDigest()
	done := 0
	for _, id := range ids {
		tr := res.Tasks[id]
		out.counters["wms.attempts"] += float64(tr.Attempts)
		if tr.FinishedAt > 0 {
			done++
		}
		d.str(id)
		d.int(int64(tr.Mode))
		d.str(tr.Node)
		d.int(int64(tr.Attempts))
		d.int(int64(tr.FinishedAt))
	}
	out.digests = map[string]string{"outputs": d.sum()}
	switch {
	case done != wf.Len():
		out.err = fmt.Errorf("%d of %d tasks finished", done, wf.Len())
	case s.Env.Alive() != 0:
		out.err = fmt.Errorf("%d processes alive after drain", s.Env.Alive())
	}
	return out
}
