package kube

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The reference below is the placement layer as it was before candidates
// carried a dense node index: plugins keyed by node name, and a Pick that
// takes the request by value and hands every plugin copies of the request
// and the candidate. TestPickMatchesNameKeyedReference requires the
// index-keyed, pointer-passing path to decide exactly as it did.

type refFilter struct {
	name string
	fit  func(req sched.Request, c sched.Candidate) bool
}

type refScore struct {
	name   string
	weight float64
	eval   func(req sched.Request, c sched.Candidate) float64
}

type refPolicy struct {
	filters       []refFilter
	scores        []refScore
	samplePercent int
}

func (p refPolicy) total(req sched.Request, c sched.Candidate) float64 {
	sum := 0.0
	for _, s := range p.scores {
		w := s.weight
		if w == 0 {
			w = 1
		}
		sum += w * s.eval(req, c)
	}
	return sum
}

func (p refPolicy) feasible(req sched.Request, c sched.Candidate) bool {
	for _, f := range p.filters {
		if !f.fit(req, c) {
			return false
		}
	}
	return true
}

func (p refPolicy) sampleTarget(n int) int {
	if p.samplePercent <= 0 || p.samplePercent >= 100 {
		return n
	}
	t := n * p.samplePercent / 100
	if t < sched.MinFeasibleToScore {
		t = sched.MinFeasibleToScore
	}
	if t > n {
		t = n
	}
	return t
}

func (p refPolicy) pick(req sched.Request, cands []sched.Candidate, offset int) sched.Decision {
	var d sched.Decision
	n := len(cands)
	if n == 0 {
		return d
	}
	target := p.sampleTarget(n)
	best := -1
	bestScore := 0.0
	for i := 0; i < n; i++ {
		idx := (i + offset) % n
		d.Visited++
		if !p.feasible(req, cands[idx]) {
			continue
		}
		d.Feasible++
		score := p.total(req, cands[idx])
		if best < 0 || score > bestScore {
			best, bestScore = idx, score
		}
		if d.Feasible >= target {
			break
		}
	}
	if best < 0 {
		return d
	}
	d.Winner = &cands[best]
	d.Score = bestScore
	for _, s := range p.scores {
		d.PerPlugin = append(d.PerPlugin, sched.PluginScore{Plugin: s.name, Value: s.eval(req, cands[best])})
	}
	return d
}

// refState is the reference's own name-keyed bookkeeping of the cluster,
// kept by the test alongside the Kube it drives.
type refState struct {
	reqCPU   map[string]float64
	pods     map[string]int
	cordoned map[string]bool
	rts      crt.Set
}

// refPolicyFor mirrors Kube.policyFor with name-keyed plugins.
func refPolicyFor(name string, st *refState, samplePercent int) refPolicy {
	requested := func(node string) float64 { return st.reqCPU[node] }
	p := refPolicy{samplePercent: samplePercent, filters: []refFilter{
		{"cordoned", func(_ sched.Request, c sched.Candidate) bool { return !st.cordoned[c.Name] }},
		{"mem-fit", func(req sched.Request, c sched.Candidate) bool {
			return c.Node.MemUsedMB()+req.MemMB <= c.Node.MemMB
		}},
		{"cpu-fit", func(req sched.Request, c sched.Candidate) bool {
			return requested(c.Name)+req.CPURequest <= float64(c.Node.Cores)
		}},
	}}
	binPack := refScore{name: "bin-pack", eval: func(_ sched.Request, c sched.Candidate) float64 { return requested(c.Name) }}
	switch name {
	case sched.PolicyLeastRequested:
		p.scores = []refScore{{name: "least-requested", eval: func(_ sched.Request, c sched.Candidate) float64 {
			return -requested(c.Name)
		}}}
	case sched.PolicyBinPack:
		p.scores = []refScore{binPack}
	case sched.PolicySpread:
		p.scores = []refScore{{name: "spread", eval: func(_ sched.Request, c sched.Candidate) float64 {
			return -float64(st.pods[c.Name])
		}}}
	case sched.PolicyImageLocality:
		p.scores = []refScore{{name: "image-locality", weight: 1000, eval: func(req sched.Request, c sched.Candidate) float64 {
			if rt := st.rts[c.Name]; req.Image != "" && rt != nil && rt.HasImage(req.Image) {
				return 1
			}
			return 0
		}}, binPack}
	default:
		panic("unknown policy " + name)
	}
	return p
}

// randomPlacementKube builds a control plane over n workers of mixed
// shapes with some images pre-pulled, some memory reserved, some pods
// already bound (and some of those deleted again), and some nodes
// cordoned, recording the same state in a refState by node name. It is
// never started: the test drives pickNode and bind directly.
func randomPlacementKube(t *testing.T, rng *sim.RNG, n int, policy string, samplePercent int) (*Kube, *refState) {
	t.Helper()
	env := sim.NewEnv(1)
	prm := config.Default()
	prm.WorkerNodes = n
	prm.KubePlacementPolicy = policy
	prm.SchedSamplePercent = samplePercent
	cl := cluster.New(env, prm)
	shapes := []struct{ cores, memMB int }{{8, 32768}, {4, 8192}, {16, 65536}, {2, 2048}}
	for _, w := range cl.Workers {
		s := shapes[rng.Intn(len(shapes))]
		w.Cores, w.MemMB = s.cores, s.memMB
	}
	reg := registry.New(cl.Net)
	reg.Push(registry.NewImage("fn", []int64{1}, 1))
	reg.Push(registry.NewImage("other", []int64{1}, 1))
	rts := crt.NewSet(env, cl, reg, prm)
	k := New(env, cl, rts, prm)
	st := &refState{reqCPU: map[string]float64{}, pods: map[string]int{}, cordoned: map[string]bool{}, rts: rts}

	var pulls []string
	for _, w := range cl.Workers {
		if rng.Intn(3) == 0 {
			pulls = append(pulls, w.Name)
		}
	}
	env.Go("prepull", func(p *sim.Proc) {
		for _, name := range pulls {
			if err := rts[name].PullImage(p, "fn"); err != nil {
				t.Error(err)
			}
		}
	})
	env.Run()

	var bound []string
	for _, w := range cl.Workers {
		if err := w.ReserveMem(rng.Intn(w.MemMB + 1)); err != nil {
			t.Fatal(err)
		}
		for j := rng.Intn(4); j > 0; j-- {
			name := fmt.Sprintf("fill-%s-%d", w.Name, j)
			cpu := 0.5 * float64(1+rng.Intn(2*w.Cores))
			bindRef(k, st, name, w, cpu)
			bound = append(bound, name)
		}
		if rng.Intn(5) == 0 {
			k.CordonNode(w.Name)
			st.cordoned[w.Name] = true
		}
	}
	for _, name := range bound {
		if rng.Intn(4) == 0 {
			pod := k.pods[name]
			k.DeletePod(name)
			st.reqCPU[pod.NodeName] -= pod.Spec.CPURequest
			st.pods[pod.NodeName]--
		}
	}
	return k, st
}

// bindRef binds a synthetic pod to w in both the Kube and the reference.
func bindRef(k *Kube, st *refState, name string, w *cluster.Node, cpu float64) {
	pod := &Pod{Spec: PodSpec{Name: name, CPURequest: cpu, MemMB: 64}}
	k.pods[name] = pod
	k.bind(pod, &k.nodes[w.Index])
	st.reqCPU[w.Name] += cpu
	st.pods[w.Name]++
}

// TestPickMatchesNameKeyedReference: on random clusters — mixed node
// shapes, random cordons, partly filled nodes — every kube policy at every
// sampling setting and random rotation offsets chooses the same node with
// the same score, per-plugin breakdown, feasible count, and visit count as
// the name-keyed, by-value reference. Each winner is bound before the next
// pick, so the accounting the plugins read evolves between picks.
func TestPickMatchesNameKeyedReference(t *testing.T) {
	policies := []string{sched.PolicyLeastRequested, sched.PolicyBinPack, sched.PolicySpread, sched.PolicyImageLocality}
	cpus := []float64{0.25, 0.5, 1, 2, 4, 8, 12}
	mems := []int{64, 1024, 4096, 16384}
	images := []string{"fn", "other", ""}
	rng := sim.NewRNG(2024)
	var placed, unplaced, cut int // cut: sampling stopped before the last node
	for _, policy := range policies {
		for _, pct := range []int{0, 10, 50} {
			for round := 0; round < 6; round++ {
				n := 1 + rng.Intn(400)
				k, st := randomPlacementKube(t, rng, n, policy, pct)
				ref := refPolicyFor(policy, st, pct)
				refCands := make([]sched.Candidate, len(k.cl.Workers))
				for i, w := range k.cl.Workers {
					refCands[i] = sched.Candidate{Name: w.Name, Node: w}
				}
				for i := 0; i < 40; i++ {
					spec := PodSpec{
						Name:       fmt.Sprintf("probe-%d", i),
						Image:      images[rng.Intn(len(images))],
						CPURequest: cpus[rng.Intn(len(cpus))],
						MemMB:      mems[rng.Intn(len(mems))],
					}
					offset := 0
					if pct > 0 {
						offset = rng.Intn(10 * n)
						k.schedOffset = offset
					}
					got, gotDec := k.pickNode(spec)
					want := ref.pick(podRequest(spec), refCands, offset)
					where := fmt.Sprintf("%s/%d%%/round %d (%d nodes)/pick %d", policy, pct, round, n, i)
					assertSameDecision(t, where, gotDec, want)
					if t.Failed() {
						return
					}
					if gotDec.Visited < n {
						cut++
					}
					if got == nil {
						unplaced++
					} else {
						placed++
						bindRef(k, st, spec.Name, got, spec.CPURequest)
					}
				}
			}
		}
	}
	if placed == 0 || unplaced == 0 || cut == 0 {
		t.Fatalf("random clusters missed a case: %d placed, %d unplaced, %d cut short by sampling", placed, unplaced, cut)
	}
}

func assertSameDecision(t *testing.T, where string, got, want sched.Decision) {
	t.Helper()
	switch {
	case (got.Winner == nil) != (want.Winner == nil):
		t.Errorf("%s: winner %v, reference %v", where, got.Winner, want.Winner)
		return
	case got.Winner != nil && got.Winner.Name != want.Winner.Name:
		t.Errorf("%s: winner %s, reference %s", where, got.Winner.Name, want.Winner.Name)
	}
	if got.Score != want.Score {
		t.Errorf("%s: score %v, reference %v", where, got.Score, want.Score)
	}
	if got.Feasible != want.Feasible || got.Visited != want.Visited {
		t.Errorf("%s: feasible/visited %d/%d, reference %d/%d", where, got.Feasible, got.Visited, want.Feasible, want.Visited)
	}
	if len(got.PerPlugin) != len(want.PerPlugin) {
		t.Errorf("%s: per-plugin %v, reference %v", where, got.PerPlugin, want.PerPlugin)
		return
	}
	for i := range got.PerPlugin {
		if got.PerPlugin[i] != want.PerPlugin[i] {
			t.Errorf("%s: per-plugin %v, reference %v", where, got.PerPlugin, want.PerPlugin)
			return
		}
	}
}

// TestPickNodeAllocations pins the placement hot path's allocation
// profile: a pick that finds no feasible node allocates nothing, and a
// successful one allocates only the winner's per-plugin score list. The
// race detector's runtime allocates now and then on its own; averaging
// over many picks keeps that below one allocation per pick.
func TestPickNodeAllocations(t *testing.T) {
	for _, pct := range []int{0, 10} {
		f := newFixtureWith(t, func(p *config.Params) {
			p.WorkerNodes = 300
			p.SchedSamplePercent = pct
		})
		s := spec("probe")
		var node *cluster.Node
		if got := testing.AllocsPerRun(1000, func() { node, _ = f.k.pickNode(s) }); got > 1 {
			t.Errorf("sample %d%%: successful pick: %v allocations, want at most 1", pct, got)
		}
		if node == nil {
			t.Fatalf("sample %d%%: pick over an empty cluster found no node", pct)
		}
		s.CPURequest = float64(f.cl.Workers[0].Cores + 1)
		if got := testing.AllocsPerRun(1000, func() { node, _ = f.k.pickNode(s) }); got != 0 {
			t.Errorf("sample %d%%: pick that fits nowhere: %v allocations, want 0", pct, got)
		}
		if node != nil {
			t.Fatalf("sample %d%%: oversized pod placed on %s", pct, node.Name)
		}
	}
}
