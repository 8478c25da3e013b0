package wms

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// validateReference is the original Validate: it materialises, for every
// task in topological order, the set of LFNs its ancestors produce. It is
// O(depth² × width) and kept only as the differential oracle for Validate.
func validateReference(w *Workflow) error {
	topo, err := w.TopoOrder()
	if err != nil {
		return err
	}
	external := make(map[string]bool)
	for _, f := range w.ExternalInputs() {
		external[f.LFN] = true
	}
	availAt := make(map[string]map[string]bool, w.Len())
	for _, id := range topo {
		avail := make(map[string]bool)
		for _, par := range w.parents[id] {
			for lfn := range availAt[par] {
				avail[lfn] = true
			}
			spec, _ := w.Task(par)
			for _, f := range spec.Outputs {
				avail[f.LFN] = true
			}
		}
		spec, _ := w.Task(id)
		for _, f := range spec.Inputs {
			if !external[f.LFN] && !avail[f.LFN] {
				return fmt.Errorf("wms: task %s input %q is produced by a non-ancestor", id, f.LFN)
			}
		}
		availAt[id] = avail
	}
	return nil
}

// randomValidateDAG builds a random workflow for the Validate differential
// test. Outputs come from a small shared pool, so one file often has
// several producers. Inputs are drawn from ancestors' outputs (parents and
// transitive ancestors), from external files, and in noisy DAGs from the
// pool at large (non-ancestors, the task's own outputs). Edges mostly run forward in declaration
// order; with cycles set, some run backward. Shape picks a plain random DAG,
// a deep chain with side branches, or a layered fan.
func randomValidateDAG(rng *sim.RNG, cycles bool) *Workflow {
	shape := rng.Intn(3)
	n := 1 + rng.Intn(24)
	if shape == 1 {
		n = 40 + rng.Intn(160)
	}
	pool := 1 + rng.Intn(2*n)
	lfnName := func() string { return fmt.Sprintf("f%d", rng.Intn(pool)) }
	wf := NewWorkflow("v")
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%c%d", 'a'+rune(rng.Intn(3)), i)
		spec := TaskSpec{ID: ids[i], Transformation: "x"}
		for k := rng.Intn(3); k > 0; k-- {
			spec.Outputs = append(spec.Outputs, FileSpec{LFN: lfnName()})
		}
		_ = wf.AddTask(spec)
	}
	edge := func(par, child int) {
		_ = wf.AddDependency(ids[par], ids[child])
	}
	for i := 1; i < n; i++ {
		switch shape {
		case 0: // random DAG
			for k := rng.Intn(3); k > 0; k-- {
				edge(rng.Intn(i), i)
			}
		case 1: // deep chain, occasionally skipping or branching
			edge(i-1, i)
			if rng.Intn(8) == 0 {
				edge(rng.Intn(i), i)
			}
		case 2: // layered fan: each task hangs off a task a few layers up
			lo := i - 1 - rng.Intn(4)
			if lo < 0 {
				lo = 0
			}
			edge(lo, i)
		}
	}
	if cycles {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b {
				a, b = b, a
			}
			edge(a, b) // backward (or self) edge
		}
	}
	// Inputs: mostly an output of an ancestor found by walking up a few
	// parent links, else an external file; in half the DAGs, now and then
	// any pool file (possibly a non-ancestor's output or the task's own).
	noisy := rng.Intn(2) == 0
	for i := range ids {
		spec, _ := wf.Task(ids[i])
		for k := rng.Intn(4); k > 0; k-- {
			if noisy && rng.Intn(12) == 0 {
				spec.Inputs = append(spec.Inputs, FileSpec{LFN: lfnName()})
				continue
			}
			cur := ids[i]
			for hops := 1 + rng.Intn(5); hops > 0; hops-- {
				pars := wf.Parents(cur)
				if len(pars) == 0 {
					break
				}
				cur = pars[rng.Intn(len(pars))]
			}
			if src, _ := wf.Task(cur); cur != ids[i] && len(src.Outputs) > 0 {
				spec.Inputs = append(spec.Inputs, src.Outputs[rng.Intn(len(src.Outputs))])
			} else {
				spec.Inputs = append(spec.Inputs, FileSpec{LFN: fmt.Sprintf("ext%d", rng.Intn(4))})
			}
		}
	}
	return wf
}

// TestValidateMatchesReference checks the linear Validate against the
// original ancestor-set implementation on random DAGs: both must accept the
// same workflows and reject the rest with the identical first error.
func TestValidateMatchesReference(t *testing.T) {
	rng := sim.NewRNG(7)
	var accepted, nonAncestor, cyclic, deep, shared int
	for i := 0; i < 2000; i++ {
		wf := randomValidateDAG(rng, i%5 == 4)
		want, got := validateReference(wf), wf.Validate()
		if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
			t.Fatalf("dag %d (%d tasks): Validate = %v, reference = %v", i, wf.Len(), got, want)
		}
		if want == nil && resolvesOnlyThroughAncestor(wf) {
			deep++
		}
		if hasSharedProducer(wf) {
			shared++
		}
		switch {
		case want == nil:
			accepted++
		case want.Error() == fmt.Sprintf("wms: workflow %s has a cycle", wf.Name):
			cyclic++
		default:
			nonAncestor++
		}
	}
	// The generator must exercise every outcome substantially.
	if accepted < 500 || nonAncestor < 300 || cyclic < 200 || deep < 400 || shared < 1000 {
		t.Errorf("outcome spread too thin: accepted=%d non-ancestor=%d cyclic=%d ancestor-only=%d shared-producer=%d",
			accepted, nonAncestor, cyclic, deep, shared)
	}
}

// resolvesOnlyThroughAncestor reports whether some task input has producers
// but none among the task's direct parents (Validate's slow path).
func resolvesOnlyThroughAncestor(wf *Workflow) bool {
	for _, id := range wf.TaskIDs() {
		spec, _ := wf.Task(id)
		for _, f := range spec.Inputs {
			produced, direct := false, false
			for _, other := range wf.TaskIDs() {
				o, _ := wf.Task(other)
				for _, out := range o.Outputs {
					if out.LFN == f.LFN {
						produced = true
						for _, par := range wf.Parents(id) {
							direct = direct || par == other
						}
					}
				}
			}
			if produced && !direct {
				return true
			}
		}
	}
	return false
}

// hasSharedProducer reports whether some LFN is output by several tasks.
func hasSharedProducer(wf *Workflow) bool {
	producers := make(map[string]int)
	for _, id := range wf.TaskIDs() {
		spec, _ := wf.Task(id)
		for _, f := range spec.Outputs {
			producers[f.LFN]++
			if producers[f.LFN] > 1 {
				return true
			}
		}
	}
	return false
}
