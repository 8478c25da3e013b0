// Package wms is the Pegasus-like workflow management system: abstract
// workflows of transformations over logical files, catalogs resolving
// transformations and replicas, a planner that maps each task onto one of
// the paper's three execution environments (native, traditional container,
// serverless), and a DAGMan-style engine that drives the plan through the
// condor pool.
//
// Data staging follows Pegasus's condorio style: logical files live on the
// submit node and travel inside each job's condor file-transfer sandbox, so
// every task's inputs leave through the submit uplink and its outputs return
// there — including, in container mode, the container image itself (§IV,
// Vahi et al.).
package wms

import (
	"fmt"
	"sort"
)

// FileSpec is a logical file with its size.
type FileSpec struct {
	// LFN is the logical file name, unique within a workflow run.
	LFN string
	// Bytes is the file's size.
	Bytes int64
}

// TaskSpec is one abstract job: an invocation of a transformation over
// logical files.
type TaskSpec struct {
	// ID is unique within the workflow.
	ID string
	// Transformation names the executable in the transformation catalog.
	Transformation string
	// Inputs and Outputs are the task's file uses.
	Inputs  []FileSpec
	Outputs []FileSpec
	// WorkScale multiplies the transformation's service demand (0 means 1).
	// Task resizing (§IX-C) splits a task into subtasks with WorkScale
	// 1/k plus a split overhead.
	WorkScale float64
	// Priority orders the task's condor job against others competing for
	// slots (higher first).
	Priority int
	// RequireNode pins the task to a named worker (a simple ClassAd
	// requirement); empty runs anywhere.
	RequireNode string
}

// EffectiveWorkScale returns WorkScale with the zero value defaulted to 1.
func (t *TaskSpec) EffectiveWorkScale() float64 {
	if t.WorkScale <= 0 {
		return 1
	}
	return t.WorkScale
}

// InputBytes sums the task's input sizes.
func (t *TaskSpec) InputBytes() int64 {
	var n int64
	for _, f := range t.Inputs {
		n += f.Bytes
	}
	return n
}

// OutputBytes sums the task's output sizes.
func (t *TaskSpec) OutputBytes() int64 {
	var n int64
	for _, f := range t.Outputs {
		n += f.Bytes
	}
	return n
}

// Workflow is an abstract DAG of tasks.
type Workflow struct {
	Name    string
	index   map[string]int      // task ID → declaration position
	specs   []*TaskSpec         // by declaration position
	order   []string            // task IDs by declaration position
	parents map[string][]string // child → parents
	childs  map[string][]string // parent → children
}

// NewWorkflow returns an empty workflow.
func NewWorkflow(name string) *Workflow {
	return &Workflow{
		Name:    name,
		index:   make(map[string]int),
		parents: make(map[string][]string),
		childs:  make(map[string][]string),
	}
}

// AddTask registers a task. Duplicate IDs are an error.
func (w *Workflow) AddTask(t TaskSpec) error {
	if t.ID == "" {
		return fmt.Errorf("wms: task with empty ID")
	}
	if _, dup := w.index[t.ID]; dup {
		return fmt.Errorf("wms: duplicate task %q", t.ID)
	}
	spec := t
	w.index[t.ID] = len(w.order)
	w.specs = append(w.specs, &spec)
	w.order = append(w.order, t.ID)
	return nil
}

// AddDependency declares that child runs after parent.
func (w *Workflow) AddDependency(parent, child string) error {
	if _, ok := w.index[parent]; !ok {
		return fmt.Errorf("wms: dependency references unknown task %q", parent)
	}
	if _, ok := w.index[child]; !ok {
		return fmt.Errorf("wms: dependency references unknown task %q", child)
	}
	w.parents[child] = append(w.parents[child], parent)
	w.childs[parent] = append(w.childs[parent], child)
	return nil
}

// Task returns a task by ID.
func (w *Workflow) Task(id string) (*TaskSpec, bool) {
	i, ok := w.index[id]
	if !ok {
		return nil, false
	}
	return w.specs[i], true
}

// TaskIDs returns all task IDs in insertion order.
func (w *Workflow) TaskIDs() []string {
	return append([]string(nil), w.order...)
}

// Parents returns a task's parents.
func (w *Workflow) Parents(id string) []string { return w.parents[id] }

// Children returns a task's children.
func (w *Workflow) Children(id string) []string { return w.childs[id] }

// Len returns the number of tasks.
func (w *Workflow) Len() int { return len(w.order) }

// TopoOrder returns a topological ordering, or an error if the DAG has a
// cycle.
func (w *Workflow) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(w.order))
	for _, id := range w.order {
		indeg[id] = len(w.parents[id])
	}
	var queue []string
	for _, id := range w.order {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	var out []string
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		out = append(out, id)
		for _, c := range w.childs[id] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(out) != len(w.order) {
		return nil, fmt.Errorf("wms: workflow %s has a cycle", w.Name)
	}
	return out, nil
}

// ExternalInputs returns the logical files consumed by the workflow but
// produced by none of its tasks — these must be present on the submit node
// before the run (the replica catalog's job).
func (w *Workflow) ExternalInputs() []FileSpec {
	produced := make(map[string]bool)
	for _, t := range w.specs {
		for _, f := range t.Outputs {
			produced[f.LFN] = true
		}
	}
	seen := make(map[string]FileSpec)
	for _, t := range w.specs {
		for _, f := range t.Inputs {
			if !produced[f.LFN] {
				seen[f.LFN] = f
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]FileSpec, len(names))
	for i, n := range names {
		out[i] = seen[n]
	}
	return out
}

// Validate checks structural soundness: acyclicity and that every task
// input is either an external input or produced by an ancestor. An error
// names the first offending input in topological order.
//
// The check is linear in the DAG for the usual case, where some producer of
// each input is a direct parent; only an input whose producers are all
// non-parents costs a search of the task's ancestors.
func (w *Workflow) Validate() error {
	topo, err := w.TopoOrder()
	if err != nil {
		return err
	}
	// producers[lfn] lists the positions of every task that outputs lfn;
	// an LFN no task produces is an external input.
	producers := make(map[string][]int)
	for i, t := range w.specs {
		for _, f := range t.Outputs {
			producers[f.LFN] = append(producers[f.LFN], i)
		}
	}
	// Generation stamps, so no per-task or per-search set is allocated:
	// parentOf[i] == task stamp when i is a parent of the task under check,
	// wanted/seen[i] == search stamp during one ancestor search.
	parentOf := make([]int, len(w.specs))
	wanted := make([]int, len(w.specs))
	seen := make([]int, len(w.specs))
	var stack []int
	search := 0
	for ti, id := range topo {
		stamp := ti + 1
		pars := w.parents[id]
		for _, par := range pars {
			parentOf[w.index[par]] = stamp
		}
		for _, f := range w.specs[w.index[id]].Inputs {
			prods := producers[f.LFN]
			if len(prods) == 0 {
				continue // external input
			}
			direct := false
			for _, pi := range prods {
				if parentOf[pi] == stamp {
					direct = true
					break
				}
			}
			if direct {
				continue
			}
			// No producer is a parent: search the proper ancestors.
			search++
			for _, pi := range prods {
				wanted[pi] = search
			}
			found := false
			stack = stack[:0]
			for _, par := range pars {
				stack = append(stack, w.index[par])
			}
			for len(stack) > 0 {
				a := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[a] == search {
					continue
				}
				seen[a] = search
				if wanted[a] == search {
					found = true
					break
				}
				for _, gp := range w.parents[w.order[a]] {
					if gi := w.index[gp]; seen[gi] != search {
						stack = append(stack, gi)
					}
				}
			}
			if !found {
				return fmt.Errorf("wms: task %s input %q is produced by a non-ancestor", id, f.LFN)
			}
		}
	}
	return nil
}
