// Package sched is the unified placement layer of the testbed: a
// kube-scheduler-style plugin framework shared by the components that must
// choose "where does this unit of work go" — the Kubernetes scheduler binding
// pods to nodes and the HTCondor negotiator matching jobs to startd slots.
// The Knative ingress, whose routing pick runs for every queued request on
// every freed slot, keeps Pick's contract in its own allocation-free pass and
// records its decisions through Record.
//
// A Policy is an ordered list of Filter plugins (feasibility predicates: out
// of memory, CPU fully requested, node cordoned or offline, requirements
// expression unmet) followed by weighted Score plugins (least-requested,
// bin-pack, spread, most-free, image-locality, data-locality). Pick runs the
// filters over the candidate list, scores the survivors, and returns the
// highest-scoring candidate together with its per-plugin score breakdown so
// consumers can record the decision as trace span attributes.
//
// Determinism contract: Pick consults no randomness and keeps no internal
// state. Candidates are visited in the caller's stable order rotated by an
// explicit offset, and only a strictly better score displaces the incumbent,
// so the first candidate in rotation order wins ties. A consumer that wants
// kube-style stable tie-breaking passes a fixed offset; one that wants
// negotiator-style rotation (no machine permanently favoured) passes its own
// incrementing counter. Two same-seed runs therefore place identically, and
// the seed schedulers' exact decision sequences are reproduced by the
// default policies (kube "least-requested", condor "most-free-rr") — the
// experiment tables are byte-for-byte those of the pre-sched schedulers.
package sched

import (
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// Candidate is one placement target: a node, a startd, or a replica. The
// consumer builds the slice in its stable iteration order and Pick never
// reorders it.
type Candidate struct {
	// Name identifies the target (node name, replica/pod name).
	Name string
	// Node is the underlying machine. It may be nil for candidates that are
	// not yet bound to a machine (a replica still Pending); such candidates
	// should be excluded by a Filter before any Node-dependent Score runs.
	Node *cluster.Node
	// Free is the target's free execution-slot count, for slot-based
	// consumers (the condor negotiator). Slot-less consumers leave it zero.
	Free int
	// Aux carries the consumer's own handle (a *startd, a replica handle) so
	// closures built by the consumer can reach private state.
	Aux any
}

// Request describes the unit of work being placed.
type Request struct {
	// Name is the pod/job/request name, used only for trace labels.
	Name string
	// Image is the container image the work runs, consumed by the
	// image-locality score. Empty disables image scoring.
	Image string
	// CPURequest is the work's CPU request in cores (kube resource model).
	CPURequest float64
	// MemMB is the work's memory request.
	MemMB int
	// Inputs are the logical file names the work reads, consumed by the
	// data-locality score.
	Inputs []string
	// Requires is a ClassAd-style requirements expression; candidates whose
	// node it rejects are infeasible. nil accepts every node.
	Requires func(*cluster.Node) bool
}

// Filter is a feasibility plugin: it rules candidates in or out.
type Filter struct {
	// Name identifies the plugin in traces and diagnostics.
	Name string
	// Fit reports whether the candidate can take the request.
	Fit func(req Request, c Candidate) bool
}

// Score is a ranking plugin: higher is better. Scores are multiplied by
// Weight and summed across plugins; consumers encode "lowest X wins" by
// returning -X.
type Score struct {
	// Name identifies the plugin in traces and diagnostics.
	Name string
	// Weight scales this plugin against the others (0 is treated as 1).
	Weight float64
	// Eval returns the raw plugin score for a feasible candidate.
	Eval func(req Request, c Candidate) float64
}

// MinFeasibleToScore is the sampling floor: a sampling Policy never settles
// for fewer feasible candidates than this (unless fewer exist), matching the
// kube-scheduler's minFeasibleNodesToFind. Small clusters are therefore
// always scored exhaustively and sampling only changes behaviour at scale.
const MinFeasibleToScore = 100

// Policy is a named placement policy: filters then weighted scores.
type Policy struct {
	Name    string
	Filters []Filter
	Scores  []Score
	// SamplePercent is the kube-scheduler's percentage-of-nodes-to-score:
	// when in (0, 100), Pick stops visiting candidates once it has scored
	// max(MinFeasibleToScore, len(cands)×SamplePercent/100) feasible ones,
	// so a placement costs O(sample) instead of O(cluster). 0 (and 100)
	// score every candidate — the seed behaviour. Sampling callers should
	// pass an incrementing offset so the visit window rotates and no suffix
	// of the candidate list is permanently shadowed.
	SamplePercent int
}

// PluginScore is one score plugin's raw (unweighted) value for the winner.
type PluginScore struct {
	Plugin string
	Value  float64
}

// Decision is the outcome of one Pick.
type Decision struct {
	// Winner is the chosen candidate, nil when no candidate was feasible.
	Winner *Candidate
	// Score is the winner's total weighted score.
	Score float64
	// PerPlugin is the winner's raw score per plugin, in policy order.
	PerPlugin []PluginScore
	// Feasible counts candidates that passed every filter.
	Feasible int
	// Visited counts candidates examined (filtered or scored). Without
	// sampling it equals len(cands); with sampling it is how far Pick got
	// before hitting its feasible target.
	Visited int
}

// weight resolves a Score's effective weight (zero value means 1).
func (s Score) weight() float64 {
	if s.Weight == 0 {
		return 1
	}
	return s.Weight
}

// total computes the weighted score of one candidate.
func (p Policy) total(req Request, c Candidate) float64 {
	sum := 0.0
	for _, s := range p.Scores {
		sum += s.weight() * s.Eval(req, c)
	}
	return sum
}

// feasible reports whether the candidate passes every filter.
func (p Policy) feasible(req Request, c Candidate) bool {
	for _, f := range p.Filters {
		if !f.Fit(req, c) {
			return false
		}
	}
	return true
}

// sampleTarget returns how many feasible candidates Pick should score out
// of n before stopping early, or n when sampling is off.
func (p Policy) sampleTarget(n int) int {
	if p.SamplePercent <= 0 || p.SamplePercent >= 100 {
		return n
	}
	t := n * p.SamplePercent / 100
	if t < MinFeasibleToScore {
		t = MinFeasibleToScore
	}
	if t > n {
		t = n
	}
	return t
}

// Pick chooses the best feasible candidate. Candidates are visited in slice
// order rotated by offset (index (i+offset) mod len), and only a strictly
// higher total score displaces the current best — the first candidate in
// rotation order wins ties, which is the whole determinism contract: callers
// that pass a constant offset get stable placement, callers that pass an
// incrementing counter get round-robin rotation among equals. A sampling
// policy (SamplePercent in (0,100)) stops visiting once it has scored its
// feasible target, trading global optimality for O(sample) placements; the
// choice remains a pure function of (policy, cands, offset).
func (p Policy) Pick(req Request, cands []Candidate, offset int) Decision {
	var d Decision
	n := len(cands)
	if n == 0 {
		return d
	}
	if offset < 0 {
		offset = -offset % n // defensive; callers pass counters ≥ 0
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
	for _, s := range p.Scores {
		d.PerPlugin = append(d.PerPlugin, PluginScore{Plugin: s.Name, Value: s.Eval(req, cands[best])})
	}
	return d
}

// FormatScore renders a score for trace labels with a stable short form.
func FormatScore(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// Record emits a successful placement decision as a zero-duration span under
// parent (pass nil for a root span): substrate "sched", operation "place",
// carrying the consuming layer, the policy name, the placed unit, the chosen
// target, the winning total score, and one label per score plugin. Safe on a
// nil tracer and on a decision with no winner (both no-ops).
func Record(tr *trace.Tracer, parent *trace.Span, layer string, p Policy, req Request, d Decision) {
	if tr == nil || d.Winner == nil {
		return
	}
	sp := tr.Start(parent, "sched", "place",
		trace.L("layer", layer),
		trace.L("policy", p.Name),
		trace.L("unit", req.Name),
		trace.L("node", d.Winner.Name),
		trace.L("score", FormatScore(d.Score)),
		trace.L("feasible", strconv.Itoa(d.Feasible)))
	for _, ps := range d.PerPlugin {
		sp.SetLabel("score."+ps.Plugin, FormatScore(ps.Value))
	}
	sp.End()
}

// Validate checks a policy is well-formed (a name, at least one score, and
// no nil plugin functions) — called once at consumer construction time so a
// misconfigured policy fails fast instead of mid-simulation.
func (p Policy) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("sched: policy has no name")
	}
	if len(p.Scores) == 0 {
		return fmt.Errorf("sched: policy %q has no score plugins", p.Name)
	}
	if p.SamplePercent < 0 || p.SamplePercent > 100 {
		return fmt.Errorf("sched: policy %q: sample percent %d outside [0, 100]", p.Name, p.SamplePercent)
	}
	for _, f := range p.Filters {
		if f.Fit == nil {
			return fmt.Errorf("sched: policy %q: filter %q has no predicate", p.Name, f.Name)
		}
	}
	for _, s := range p.Scores {
		if s.Eval == nil {
			return fmt.Errorf("sched: policy %q: score %q has no evaluator", p.Name, s.Name)
		}
	}
	return nil
}
