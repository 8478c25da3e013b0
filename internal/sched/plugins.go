package sched

import "repro/internal/cluster"

// Standard plugin constructors. Plugins that need consumer state (requested
// resources, cordon sets, image stores) take it as a closure so the framework
// stays free of scheduler-specific bookkeeping. Those closures are keyed by
// Candidate.Index, the consumer's dense per-target index, so the per-candidate
// cost of a placement is a slice read rather than a string-keyed map lookup.

// Canonical policy names selectable through config.Params. The kube control
// plane accepts least-requested (its seed default), bin-pack, spread, and
// image-locality; the condor negotiator accepts most-free-rr (its seed
// default) and data-locality.
const (
	PolicyLeastRequested = "least-requested"
	PolicyBinPack        = "bin-pack"
	PolicySpread         = "spread"
	PolicyImageLocality  = "image-locality"
	PolicyMostFreeRR     = "most-free-rr"
	PolicyDataLocality   = "data-locality"
)

// ---- Filters ----

// MemFit rejects candidates whose node cannot admit the request's memory on
// top of its kubelet-visible reservations. This mirrors the seed kube
// scheduler exactly: admission-time reservations (ReserveMem), not
// scheduler-time requests, gate feasibility, so a deleted pod's memory keeps
// the node infeasible until its teardown actually releases it.
func MemFit() Filter {
	return Filter{Name: "mem-fit", Fit: func(req *Request, c *Candidate) bool {
		return c.Node.MemUsedMB()+req.MemMB <= c.Node.MemMB
	}}
}

// CPUFit rejects candidates whose requested CPU plus the request would
// exceed the node's cores. requested reports the current requested CPU in
// cores of the candidate with the given index (the consumer's O(1)
// accounting).
func CPUFit(requested func(index int) float64) Filter {
	return Filter{Name: "cpu-fit", Fit: func(req *Request, c *Candidate) bool {
		return requested(c.Index)+req.CPURequest <= float64(c.Node.Cores)
	}}
}

// Cordoned rejects candidates the consumer has marked unschedulable; is
// reports the flag of the candidate with the given index.
func Cordoned(is func(index int) bool) Filter {
	return Filter{Name: "cordoned", Fit: func(req *Request, c *Candidate) bool {
		return !is(c.Index)
	}}
}

// SlotFree rejects candidates with no free execution slots (condor startds).
func SlotFree() Filter {
	return Filter{Name: "slot-free", Fit: func(req *Request, c *Candidate) bool {
		return c.Free > 0
	}}
}

// Requirements applies the request's ClassAd-style requirements expression.
func Requirements() Filter {
	return Filter{Name: "requirements", Fit: func(req *Request, c *Candidate) bool {
		return req.Requires == nil || req.Requires(c.Node)
	}}
}

// FilterFunc wraps a consumer-specific predicate (e.g. "this startd is
// offline", "this replica is ready with gate capacity") as a named Filter.
func FilterFunc(name string, fit func(req *Request, c *Candidate) bool) Filter {
	return Filter{Name: name, Fit: fit}
}

// ---- Scores ----

// LeastRequested prefers the node with the lowest requested CPU — the seed
// kube scheduler's least-allocated spreading.
func LeastRequested(requested func(index int) float64) Score {
	return Score{Name: "least-requested", Eval: func(req *Request, c *Candidate) float64 {
		return -requested(c.Index)
	}}
}

// BinPack prefers the node with the highest requested CPU that still fits —
// packing work onto few nodes (most-allocated), the dual of LeastRequested.
func BinPack(requested func(index int) float64) Score {
	return Score{Name: "bin-pack", Eval: func(req *Request, c *Candidate) float64 {
		return requested(c.Index)
	}}
}

// Spread prefers the node running the fewest units of the same workload
// (topology-spread by unit count rather than by requested CPU).
func Spread(count func(index int) int) Score {
	return Score{Name: "spread", Eval: func(req *Request, c *Candidate) float64 {
		return -float64(count(c.Index))
	}}
}

// MostFree prefers the candidate with the most free slots — the seed condor
// negotiator's spreading rule.
func MostFree() Score {
	return Score{Name: "most-free", Eval: func(req *Request, c *Candidate) float64 {
		return float64(c.Free)
	}}
}

// ImageLocality scores 1 when the candidate's node already holds the
// request's image locally (no pull needed) and 0 otherwise. Weight it above
// the tie-break scores so presence dominates: placement then follows the
// image and bring-up skips the registry entirely. has reports whether the
// candidate with the given index holds the image.
func ImageLocality(has func(index int, image string) bool) Score {
	return Score{Name: "image-locality", Eval: func(req *Request, c *Candidate) float64 {
		if req.Image != "" && has(c.Index, req.Image) {
			return 1
		}
		return 0
	}}
}

// DataLocality scores the fraction of the request's input files already
// resident on the candidate's node (scratch/staging residency): 1 when every
// input is local, 0 when none are (or the request has no inputs).
func DataLocality(resident func(node *cluster.Node, lfn string) bool) Score {
	return Score{Name: "data-locality", Eval: func(req *Request, c *Candidate) float64 {
		if len(req.Inputs) == 0 {
			return 0
		}
		n := 0
		for _, lfn := range req.Inputs {
			if resident(c.Node, lfn) {
				n++
			}
		}
		return float64(n) / float64(len(req.Inputs))
	}}
}

// ScoreFunc wraps a consumer-specific evaluator as a named Score.
func ScoreFunc(name string, weight float64, eval func(req *Request, c *Candidate) float64) Score {
	return Score{Name: name, Weight: weight, Eval: eval}
}
