package sched

import (
	"fmt"
	"testing"
)

// samplePolicy is a minimal all-feasible policy scoring every candidate
// equally, so Pick outcomes isolate the sampling/rotation mechanics.
func samplePolicy(percent int) Policy {
	return Policy{
		Name:          "sample-test",
		Scores:        []Score{{Name: "flat", Eval: func(*Request, *Candidate) float64 { return 1 }}},
		SamplePercent: percent,
	}
}

func candidateList(n int) []Candidate {
	cands := make([]Candidate, n)
	for i := range cands {
		cands[i] = Candidate{Name: fmt.Sprintf("node-%04d", i)}
	}
	return cands
}

// TestSamplingStopsEarly: with 1000 candidates at 20%, Pick scores exactly
// 200 feasible candidates and stops — the sweep's O(sample) placement.
func TestSamplingStopsEarly(t *testing.T) {
	pol := samplePolicy(20)
	d := pol.Pick(&Request{}, candidateList(1000), 0)
	if d.Visited != 200 || d.Feasible != 200 {
		t.Errorf("visited %d feasible %d, want 200/200", d.Visited, d.Feasible)
	}
	if d.Winner == nil || d.Winner.Name != "node-0000" {
		t.Errorf("winner %v, want first in rotation order", d.Winner)
	}
}

// TestSamplingFloor: the MinFeasibleToScore floor keeps small samples
// honest — 10% of 500 is 50, but Pick still scores 100.
func TestSamplingFloor(t *testing.T) {
	pol := samplePolicy(10)
	d := pol.Pick(&Request{}, candidateList(500), 0)
	if d.Feasible != MinFeasibleToScore {
		t.Errorf("feasible %d, want floor %d", d.Feasible, MinFeasibleToScore)
	}
}

// TestSamplingSmallClusterExhaustive: below the floor, sampling changes
// nothing — every candidate is scored, exactly like SamplePercent 0.
func TestSamplingSmallClusterExhaustive(t *testing.T) {
	for _, pct := range []int{0, 10, 100} {
		pol := samplePolicy(pct)
		d := pol.Pick(&Request{}, candidateList(50), 0)
		if d.Visited != 50 || d.Feasible != 50 {
			t.Errorf("pct %d: visited %d feasible %d, want 50/50", pct, d.Visited, d.Feasible)
		}
	}
}

// TestSamplingRotation: the offset rotates the visit window, so different
// offsets see (and win with) different candidates — no suffix of the list
// is permanently shadowed.
func TestSamplingRotation(t *testing.T) {
	cands := candidateList(1000)
	pol := samplePolicy(10)
	a := pol.Pick(&Request{}, cands, 0)
	b := pol.Pick(&Request{}, cands, 700)
	if a.Winner.Name != "node-0000" || b.Winner.Name != "node-0700" {
		t.Errorf("winners %s / %s, want node-0000 / node-0700", a.Winner.Name, b.Winner.Name)
	}
}

// TestSamplingSkipsInfeasible: infeasible candidates do not count towards
// the target — Pick keeps visiting until it has scored enough feasible ones.
func TestSamplingSkipsInfeasible(t *testing.T) {
	pol := samplePolicy(10)
	pol.Filters = []Filter{{Name: "odd-only", Fit: func(_ *Request, c *Candidate) bool {
		return c.Name[len(c.Name)-1]%2 == 1
	}}}
	d := pol.Pick(&Request{}, candidateList(1000), 0)
	if d.Feasible != 100 {
		t.Errorf("feasible %d, want 100", d.Feasible)
	}
	if d.Visited <= d.Feasible {
		t.Errorf("visited %d not > feasible %d despite infeasible candidates", d.Visited, d.Feasible)
	}
}

// TestSamplePercentValidated: out-of-range percentages fail Validate.
func TestSamplePercentValidated(t *testing.T) {
	for _, pct := range []int{-1, 101} {
		if pol := samplePolicy(pct); pol.Validate() == nil {
			t.Errorf("Validate accepted SamplePercent %d", pct)
		}
	}
	if pol := samplePolicy(50); pol.Validate() != nil {
		t.Errorf("Validate rejected SamplePercent 50: %v", pol.Validate())
	}
}
