package knative

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// referencePolicy is the replica-routing policy as the generic placement
// layer expresses it: a ready-with-a-free-slot filter over candidates whose
// Free is the replica's free slot count, and the route policy's score.
// pickAvailable must choose exactly what Pick over this policy chooses.
func referencePolicy(s *Service) sched.Policy {
	filters := []sched.Filter{
		sched.FilterFunc("ready-capacity", func(_ sched.Request, c sched.Candidate) bool {
			return c.Aux.(*podHandle).ready() && c.Free > 0
		}),
	}
	var score sched.Score
	name := "least-requests"
	switch s.spec.Routing {
	case RouteLeastNodeLoad:
		name = "least-node-load"
		score = sched.ScoreFunc(name, 1, func(_ sched.Request, c sched.Candidate) float64 {
			h := c.Aux.(*podHandle)
			node := s.kn.cl.MustNode(h.pod.NodeName)
			return -(float64(node.CPU.Load())*1e6 + float64(h.inFlight))
		})
	default:
		score = sched.ScoreFunc(name, 1, func(_ sched.Request, c sched.Candidate) float64 {
			return -float64(c.Aux.(*podHandle).inFlight)
		})
	}
	return sched.Policy{Name: name, Filters: filters, Scores: []sched.Score{score}}
}

// referencePick runs the reference policy over the service's replicas at
// the given rotation offset without claiming anything.
func referencePick(s *Service, offset int) (sched.Policy, sched.Request, sched.Decision) {
	pol := referencePolicy(s)
	req := sched.Request{Name: s.spec.Name}
	if len(s.pods) == 0 {
		return pol, req, sched.Decision{}
	}
	cands := make([]sched.Candidate, len(s.pods))
	for i, h := range s.pods {
		cands[i] = sched.Candidate{Name: h.pod.NodeName, Free: s.slots() - h.inFlight, Aux: h}
	}
	return pol, req, pol.Pick(req, cands, offset)
}

// withRoutingPool deploys six ready replicas, loads the workers' CPUs
// unevenly with background hogs, adds three replicas that are still
// starting, and runs body in a simulation process with that pool. The
// hogs never finish, so the run is bounded.
func withRoutingPool(t *testing.T, traced bool, body func(svc *Service, pool []*podHandle)) {
	t.Helper()
	f := newFixture(t)
	if traced {
		trace.New(f.env)
	}
	f.env.Go("client", func(p *sim.Proc) {
		f.prePull(p)
		spec := baseSpec()
		spec.CPURequest = 0.1
		spec.MemMB = 64
		spec.MinScale = 6
		spec.InitialScale = 6
		svc, err := f.kn.Deploy(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		for i, w := range f.cl.Workers {
			for j := 0; j < 2*i+1; j++ {
				f.env.Go("hog", func(hp *sim.Proc) { w.ExecReserved(hp, 1e6, 1, 1) })
			}
		}
		p.Sleep(time.Second)
		for i := 0; i < 3; i++ {
			svc.addPod()
		}
		pool := append([]*podHandle(nil), svc.pods...)
		body(svc, pool)
		svc.pods = pool
		f.kn.Shutdown()
	})
	f.env.RunUntil(time.Hour)
}

// TestPickAvailableMatchesPolicyPick checks the one-pass router against the
// generic filter/score policy over random replica sets: replicas starting,
// ready, and terminating, in-flight counts from 0 to the slot limit, every
// container concurrency class, random round-robin offsets, and both route
// policies. Winner, score, and feasible count (as recorded on the sched/place
// span) must match, and only the winner's slot may be claimed.
func TestPickAvailableMatchesPolicyPick(t *testing.T) {
	withRoutingPool(t, true, func(svc *Service, pool []*podHandle) {
		tr := trace.FromEnv(svc.kn.env)
		rng := rand.New(rand.NewSource(7))
		states := []podState{podStarting, podReady, podTerminating}
		wins := 0
		for c := 0; c < 3000; c++ {
			cc := []int{1, 4, 0}[rng.Intn(3)]
			svc.spec.ContainerConcurrency = cc
			svc.spec.Routing = []RoutePolicy{RouteLeastRequests, RouteLeastNodeLoad}[rng.Intn(2)]
			slots := svc.slots()
			perm := rng.Perm(len(pool))
			svc.pods = svc.pods[:0]
			for _, i := range perm[:rng.Intn(len(pool)+1)] {
				h := pool[i]
				h.state = states[rng.Intn(len(states))]
				if cc == 0 {
					h.inFlight = []int{0, 1, 2, 3, slots - 1, slots}[rng.Intn(6)]
				} else {
					h.inFlight = rng.Intn(cc + 1)
				}
				svc.pods = append(svc.pods, h)
			}
			svc.rr = rng.Intn(1 << 16)
			before := make([]int, len(svc.pods))
			for i, h := range svc.pods {
				before[i] = h.inFlight
			}
			rr, spans := svc.rr, tr.Len()

			pol, req, want := referencePick(svc, rr+1)
			got := svc.pickAvailable()

			what := fmt.Sprintf("case %d (cc %d, %s, %d pods, rr %d)", c, cc, routeName(svc.spec.Routing), len(svc.pods), rr)
			if svc.rr != rr+1 {
				t.Errorf("%s: rr advanced to %d, want %d", what, svc.rr, rr+1)
				return
			}
			if want.Winner == nil {
				if got != nil {
					t.Errorf("%s: picked %s, reference found no feasible replica", what, got.pod.Spec.Name)
					return
				}
				if tr.Len() != spans {
					t.Errorf("%s: failed pick recorded a span", what)
					return
				}
			} else {
				wins++
				wh := want.Winner.Aux.(*podHandle)
				if got != wh {
					t.Errorf("%s: picked %v, reference picked %s", what, got, wh.pod.Spec.Name)
					return
				}
				if tr.Len() != spans+1 {
					t.Errorf("%s: %d spans recorded, want 1", what, tr.Len()-spans)
					return
				}
				sched.Record(tr, nil, "knative", pol, req, want)
				all := tr.Spans()
				if g, w := fmt.Sprint(all[spans].Labels()), fmt.Sprint(all[spans+1].Labels()); g != w {
					t.Errorf("%s: sched/place labels\n got %s\nwant %s", what, g, w)
					return
				}
			}
			for i, h := range svc.pods {
				claimed := 0
				if h == got {
					claimed = 1
				}
				if h.inFlight != before[i]+claimed {
					t.Errorf("%s: replica %d in-flight %d -> %d", what, i, before[i], h.inFlight)
					return
				}
			}
		}
		if wins < 1000 {
			t.Errorf("only %d of 3000 random cases had a feasible replica", wins)
		}
	})
}

// TestPickAvailableAllocatesNothing pins the untraced router's allocation
// budget: neither a pick over saturated replicas nor a successful one
// allocates.
func TestPickAvailableAllocatesNothing(t *testing.T) {
	withRoutingPool(t, false, func(svc *Service, _ []*podHandle) {
		for _, r := range []RoutePolicy{RouteLeastRequests, RouteLeastNodeLoad} {
			svc.spec.Routing = r
			svc.spec.ContainerConcurrency = 4
			for _, h := range svc.pods {
				h.inFlight = 4
			}
			if a := testing.AllocsPerRun(100, func() {
				if svc.pickAvailable() != nil {
					t.Error("picked a saturated replica")
				}
			}); a != 0 {
				t.Errorf("%s: saturated pick allocates %v per run", routeName(r), a)
				return
			}
			for _, h := range svc.pods {
				h.inFlight = 2
			}
			if a := testing.AllocsPerRun(100, func() {
				if h := svc.pickAvailable(); h != nil {
					h.inFlight--
				} else {
					t.Error("no replica picked")
				}
			}); a != 0 {
				t.Errorf("%s: successful pick allocates %v per run", routeName(r), a)
				return
			}
		}
		for _, h := range svc.pods {
			h.inFlight = 0
		}
	})
}
