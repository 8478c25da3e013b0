package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/knative"
	"repro/internal/kube"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/workload"
)

// serve is multi-tenant open-loop Knative serving in the shape of the
// traffic study's seed arm: 200 services with a Zipf mix share a diurnal
// platform rate with a flash crowd through the middle of the window, on 16
// nodes at container concurrency 1, over the study's full 100 s window. An
// op is one arrival.
const (
	serveServices   = 200
	serveRPS        = 520
	serveNodes      = 16
	serveWindow     = 100 * time.Second
	serveSwing      = 0.4
	serveFlashBoost = 2.5
	serveZipfAlpha  = 1.0
	serveWork       = 0.03 // core-seconds per request
	serveDeadline   = 10 * time.Second
	serveQueueCap   = 256
	serveDrain      = 5 * time.Second
	serveHorizon    = 15 * time.Minute
)

type arrival struct {
	at     time.Duration
	tenant int
}

// Outcome classes of one arrival.
const (
	served = iota
	shed
	deadlineDropped
	otherError
)

// serveSeed seeds the arrival schedule and the environment. It has the
// number of the traffic study's first replication's seed, but the schedule
// is the benchmark's own: the study draws each tenant's stream inside the
// simulation from the environment's generator, interleaved with the
// model's draws. The seed is fixed because this workload's
// host cost is chaotic in its inputs. One replication allocated from 76 to
// 133 KB per arrival over 18 schedule seeds, and from 90 to 144 KB when
// only the assignment of tenant streams to services was permuted. Runs on
// different seeds would then differ by more than any regression worth
// catching. As for place, the run's seed is recorded and changes nothing.
const serveSeed = 1

// serveSchedule generates the arrival schedule: each tenant's
// non-homogeneous Poisson stream in turn from one generator, merged in
// time order.
func serveSchedule() []arrival {
	shape := workload.FlashCrowd(
		workload.DiurnalRate(serveRPS, serveSwing, serveWindow),
		serveWindow*55/100, serveWindow/10, serveFlashBoost)
	peak := serveRPS * (1 + serveSwing) * serveFlashBoost
	rng := sim.NewRNG(serveSeed)
	var arr []arrival
	for i, rate := range workload.TenantMix(serveServices, serveZipfAlpha, shape) {
		workload.OpenLoop(rng, rate, peak, serveWindow, func(at time.Duration) bool {
			arr = append(arr, arrival{at, i})
			return true
		})
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].at < arr[j].at })
	return arr
}

func serve(_ uint64, r *round) outcome {
	t := time.Now()
	arrivals := serveSchedule()
	r.gen = time.Since(t)

	prm := config.Default()
	prm.WorkerNodes = serveNodes
	prm.InvokeDeadline = serveDeadline
	prm.ActivatorQueueCap = serveQueueCap

	t = time.Now()
	env := sim.NewEnv(serveSeed)
	r.attach(env)
	cl := cluster.New(env, prm)
	reg := registry.New(cl.Net)
	reg.Push(registry.NewImage("fn", prm.ImageLayersBytes[:1], prm.ImageLayersBytes[1]))
	rts := crt.NewSet(env, cl, reg, prm)
	k := kube.New(env, cl, rts, prm)
	k.Start()
	kn := knative.New(env, cl, k, prm)
	r.build = time.Since(t)

	type result struct {
		class   int
		latency time.Duration
		resp    knative.Response
	}
	results := make([]result, len(arrivals))
	finished := 0
	services := make([]*knative.Service, serveServices)
	var setupErr error

	env.Go("main", func(p *sim.Proc) {
		// Stage the image on every worker and deploy the fleet: set-up.
		for _, w := range k.Workers() {
			if err := k.Runtime(w).PullImage(p, "fn"); err != nil {
				setupErr = err
				return
			}
		}
		for i := range services {
			svc, err := kn.Deploy(p, knative.ServiceSpec{
				Name:                 fmt.Sprintf("svc-%03d", i),
				Image:                "fn",
				ContainerConcurrency: 1,
				CPURequest:           0.5,
				MemMB:                256,
				CapCores:             1,
				AppInit:              prm.ColdStartAppInit,
			})
			if err != nil {
				setupErr = err
				return
			}
			services[i] = svc
		}

		if !r.begin() {
			kn.Shutdown()
			return
		}
		start := p.Now()
		wg := sim.NewWaitGroup(env)
		for i, a := range arrivals {
			if wake := start + a.at; wake > p.Now() {
				p.Sleep(wake - p.Now())
			}
			svc := services[a.tenant]
			wg.Add(1)
			env.Go("client", func(cp *sim.Proc) {
				defer wg.Done()
				t0 := cp.Now()
				resp, err := svc.Invoke(cp, knative.Request{
					From:       cluster.SubmitNodeName,
					PayloadIn:  2048,
					PayloadOut: 1024,
					Work:       serveWork,
				})
				results[i] = result{classify(err), cp.Now() - t0, resp}
				finished++
			})
		}
		if until := start + serveWindow + serveDrain; p.Now() < until {
			p.Sleep(until - p.Now())
		}
		kn.Shutdown()
		wg.Wait(p)
	})
	env.RunUntil(serveHorizon)

	out := outcome{ops: len(arrivals)}
	if setupErr != nil {
		out.err = fmt.Errorf("set-up: %w", setupErr)
		return out
	}
	out.counters = stackCounters(env, cl.Net, k, rts, reg, services, r.tracer)

	sched, outputs := newDigest(), newDigest()
	var count [4]int
	for i, a := range arrivals {
		sched.int(int64(a.at))
		sched.int(int64(a.tenant))
		res := results[i]
		count[res.class]++
		outputs.int(int64(res.class))
		outputs.int(int64(res.latency))
		outputs.int(int64(res.resp.Queued))
		outputs.str(res.resp.PodNode)
	}
	out.digests = map[string]string{"schedule": sched.sum(), "outputs": outputs.sum()}

	// Requests are conserved: every arrival ended in exactly one class, and
	// the services' own counters agree with the harness on sheds and
	// deadline drops.
	switch {
	case finished != len(arrivals):
		out.err = fmt.Errorf("%d of %d arrivals never finished", len(arrivals)-finished, len(arrivals))
	case count[shed] != int(out.counters["knative.shed"]):
		out.err = fmt.Errorf("harness saw %d sheds, services counted %v", count[shed], out.counters["knative.shed"])
	case count[deadlineDropped] != int(out.counters["knative.deadline_drops"]):
		out.err = fmt.Errorf("harness saw %d deadline drops, services counted %v",
			count[deadlineDropped], out.counters["knative.deadline_drops"])
	case r.tracer != nil && count[served] != int(out.counters["knative.completed"]):
		out.err = fmt.Errorf("harness saw %d served, trace shows %v completed invocations",
			count[served], out.counters["knative.completed"])
	}
	return out
}

func classify(err error) int {
	switch {
	case err == nil:
		return served
	case errors.Is(err, resilience.ErrQueueFull), errors.Is(err, resilience.ErrWouldExpire):
		return shed
	case errors.Is(err, resilience.ErrDeadlineExceeded):
		return deadlineDropped
	}
	return otherError
}
