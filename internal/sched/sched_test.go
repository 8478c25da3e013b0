package sched

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

// node builds a machine whose dense index is its name's first letter's
// offset from 'a', so index-keyed test state can be a slice.
func node(name string, cores, memMB, memUsed int) *cluster.Node {
	n := &cluster.Node{Name: name, Index: int(name[0] - 'a'), Cores: cores, MemMB: memMB}
	if memUsed > 0 {
		if err := n.ReserveMem(memUsed); err != nil {
			panic(err)
		}
	}
	return n
}

func cand(n *cluster.Node) Candidate { return Candidate{Name: n.Name, Index: n.Index, Node: n} }

func TestFilters(t *testing.T) {
	requested := []float64{7.5, 2} // by index: a, b
	reqOf := func(i int) float64 { return requested[i] }
	cordons := []bool{false, true}

	cases := []struct {
		name string
		f    Filter
		req  Request
		c    Candidate
		want bool
	}{
		{"mem-fit ok", MemFit(), Request{MemMB: 512}, cand(node("a", 8, 1024, 256)), true},
		{"mem-fit exact", MemFit(), Request{MemMB: 768}, cand(node("a", 8, 1024, 256)), true},
		{"mem-fit over", MemFit(), Request{MemMB: 769}, cand(node("a", 8, 1024, 256)), false},
		{"cpu-fit ok", CPUFit(reqOf), Request{CPURequest: 0.5}, cand(node("a", 8, 1024, 0)), true},
		{"cpu-fit exact", CPUFit(reqOf), Request{CPURequest: 6}, cand(node("b", 8, 1024, 0)), true},
		{"cpu-fit over", CPUFit(reqOf), Request{CPURequest: 1}, cand(node("a", 8, 1024, 0)), false},
		{"cordoned no", Cordoned(func(i int) bool { return cordons[i] }), Request{}, cand(node("b", 8, 1024, 0)), false},
		{"cordoned yes", Cordoned(func(i int) bool { return cordons[i] }), Request{}, cand(node("a", 8, 1024, 0)), true},
		{"slot-free yes", SlotFree(), Request{}, Candidate{Name: "a", Free: 1}, true},
		{"slot-free no", SlotFree(), Request{}, Candidate{Name: "a", Free: 0}, false},
		{"requirements nil", Requirements(), Request{}, cand(node("a", 8, 1024, 0)), true},
		{"requirements accept", Requirements(), Request{Requires: func(n *cluster.Node) bool { return n.Name == "a" }}, cand(node("a", 8, 1024, 0)), true},
		{"requirements reject", Requirements(), Request{Requires: func(n *cluster.Node) bool { return n.Name == "a" }}, cand(node("b", 8, 1024, 0)), false},
		{"filter-func", FilterFunc("custom", func(_ *Request, c *Candidate) bool { return c.Free > 2 }), Request{}, Candidate{Free: 3}, true},
	}
	for _, tc := range cases {
		if got := tc.f.Fit(&tc.req, &tc.c); got != tc.want {
			t.Errorf("%s: Fit = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestScores(t *testing.T) {
	requested := []float64{3, 0.5} // by index: a, b
	reqOf := func(i int) float64 { return requested[i] }
	podCount := []int{4, 1}
	images := []bool{true, false}
	resident := map[string]bool{"a/x.fits": true, "a/y.fits": true, "b/x.fits": true}

	cases := []struct {
		name string
		s    Score
		req  Request
		c    Candidate
		want float64
	}{
		{"least-requested", LeastRequested(reqOf), Request{}, cand(node("a", 8, 1024, 0)), -3},
		{"bin-pack", BinPack(reqOf), Request{}, cand(node("b", 8, 1024, 0)), 0.5},
		{"spread", Spread(func(i int) int { return podCount[i] }), Request{}, cand(node("a", 8, 1024, 0)), -4},
		{"most-free", MostFree(), Request{}, Candidate{Free: 6}, 6},
		{"image-locality hit", ImageLocality(func(i int, img string) bool { return images[i] && img == "fn" }), Request{Image: "fn"}, cand(node("a", 8, 1024, 0)), 1},
		{"image-locality miss", ImageLocality(func(i int, img string) bool { return images[i] }), Request{Image: "fn"}, cand(node("b", 8, 1024, 0)), 0},
		{"image-locality no-image", ImageLocality(func(int, string) bool { return true }), Request{}, cand(node("a", 8, 1024, 0)), 0},
		{"data-locality all", DataLocality(func(n *cluster.Node, lfn string) bool { return resident[n.Name+"/"+lfn] }), Request{Inputs: []string{"x.fits", "y.fits"}}, cand(node("a", 8, 1024, 0)), 1},
		{"data-locality half", DataLocality(func(n *cluster.Node, lfn string) bool { return resident[n.Name+"/"+lfn] }), Request{Inputs: []string{"x.fits", "y.fits"}}, cand(node("b", 8, 1024, 0)), 0.5},
		{"data-locality no-inputs", DataLocality(func(n *cluster.Node, lfn string) bool { return true }), Request{}, cand(node("a", 8, 1024, 0)), 0},
		{"score-func weighted", ScoreFunc("w", 10, func(*Request, *Candidate) float64 { return 2 }), Request{}, Candidate{}, 2},
	}
	for _, tc := range cases {
		if got := tc.s.Eval(&tc.req, &tc.c); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Eval = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPickTieBreaking pins the determinism contract: the first candidate in
// rotation order wins ties, a strictly better score displaces it regardless
// of position, and the offset rotates which candidate is visited first.
func TestPickTieBreaking(t *testing.T) {
	flat := Policy{Name: "flat", Scores: []Score{ScoreFunc("zero", 1, func(*Request, *Candidate) float64 { return 0 })}}
	cands := []Candidate{{Name: "a"}, {Name: "b"}, {Name: "c"}}

	for offset, want := range map[int]string{0: "a", 1: "b", 2: "c", 3: "a", 5: "c"} {
		d := flat.Pick(&Request{}, cands, offset)
		if d.Winner == nil || d.Winner.Name != want {
			t.Errorf("offset %d: winner = %+v, want %s", offset, d.Winner, want)
		}
	}

	better := Policy{Name: "better", Scores: []Score{ScoreFunc("pick-b", 1, func(_ *Request, c *Candidate) float64 {
		if c.Name == "b" {
			return 1
		}
		return 0
	})}}
	for offset := 0; offset < 6; offset++ {
		if d := better.Pick(&Request{}, cands, offset); d.Winner == nil || d.Winner.Name != "b" {
			t.Errorf("offset %d: strict improvement ignored, winner %+v", offset, d.Winner)
		}
	}
}

func TestPickFiltersAndDecision(t *testing.T) {
	p := Policy{
		Name:    "filtered",
		Filters: []Filter{FilterFunc("free", func(_ *Request, c *Candidate) bool { return c.Free > 0 })},
		Scores: []Score{
			ScoreFunc("free", 1, func(_ *Request, c *Candidate) float64 { return float64(c.Free) }),
			ScoreFunc("bonus", 10, func(_ *Request, c *Candidate) float64 {
				if c.Name == "b" {
					return 1
				}
				return 0
			}),
		},
	}
	cands := []Candidate{{Name: "a", Free: 5}, {Name: "b", Free: 2}, {Name: "c", Free: 0}}
	d := p.Pick(&Request{}, cands, 0)
	if d.Winner == nil || d.Winner.Name != "b" {
		t.Fatalf("winner = %+v, want b", d.Winner)
	}
	if d.Feasible != 2 {
		t.Errorf("feasible = %d, want 2 (c is full)", d.Feasible)
	}
	if want := 2.0 + 10*1; math.Abs(d.Score-want) > 1e-12 {
		t.Errorf("score = %v, want %v", d.Score, want)
	}
	if len(d.PerPlugin) != 2 || d.PerPlugin[0] != (PluginScore{"free", 2}) || d.PerPlugin[1] != (PluginScore{"bonus", 1}) {
		t.Errorf("per-plugin = %+v", d.PerPlugin)
	}

	// Nothing feasible → no winner, zero feasible.
	none := p.Pick(&Request{}, []Candidate{{Name: "c", Free: 0}}, 0)
	if none.Winner != nil || none.Feasible != 0 {
		t.Errorf("expected empty decision, got %+v", none)
	}
	// Empty candidate list is fine.
	if d := p.Pick(&Request{}, nil, 7); d.Winner != nil {
		t.Errorf("nil candidates produced a winner")
	}
}

func TestValidate(t *testing.T) {
	ok := Policy{Name: "ok", Filters: []Filter{SlotFree()}, Scores: []Score{MostFree()}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	cases := []struct {
		name string
		p    Policy
	}{
		{"no name", Policy{Scores: []Score{MostFree()}}},
		{"no scores", Policy{Name: "x"}},
		{"nil filter", Policy{Name: "x", Filters: []Filter{{Name: "broken"}}, Scores: []Score{MostFree()}}},
		{"nil score", Policy{Name: "x", Scores: []Score{{Name: "broken"}}}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed policy", tc.name)
		}
	}
}
