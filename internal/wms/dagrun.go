package wms

import (
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/condor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// dagRun is the pure, mode-agnostic core of one workflow execution: ready-set
// maintenance, dependency tracking, attempt/retry accounting, hedge tracking,
// and result assembly. The three execution modes (poll, decentralized,
// trigger) drive the same bookkeeping and differ only in *who* observes a
// completion and *when* successors are released — see exec_poll.go and
// exec_event.go.
//
// Per-task state is indexed by declaration position (Workflow.order), and
// release is incremental: waiting counts each task's unfinished parents, a
// win decrements its children's counts, and a task whose count reaches zero
// joins the ready set. Every driver submits from that set, so the work per
// completion is proportional to the task's successors, not to the DAG.
type dagRun struct {
	e     *Engine
	wf    *Workflow
	res   *RunResult
	modes []Mode

	done      []bool
	nDone     int
	attempts  []int
	inflight  []*flight
	notBefore []time.Duration // poll-mode retry backoff gate
	waiting   []int           // unfinished parents per task

	// ready holds, in declaration order, the tasks whose parents are all
	// done and that are neither done nor in flight (poll-mode tasks still
	// in retry backoff included). flying holds the in-flight tasks in
	// lexicographic ID order, the poll loop's observation order; scan is
	// its reusable snapshot.
	ready  []int
	flying []int
	scan   []int

	tracer      *trace.Tracer
	wfSpan      *trace.Span
	absDeadline time.Duration
}

// newDagRun prepares the run's per-task state and asks assign for every
// task's mode, in declaration order.
func newDagRun(e *Engine, wf *Workflow, assign ModeAssigner, res *RunResult, tracer *trace.Tracer, wfSpan *trace.Span) *dagRun {
	n := wf.Len()
	d := &dagRun{
		e:         e,
		wf:        wf,
		res:       res,
		modes:     make([]Mode, n),
		done:      make([]bool, n),
		attempts:  make([]int, n),
		inflight:  make([]*flight, n),
		notBefore: make([]time.Duration, n),
		waiting:   make([]int, n),
		tracer:    tracer,
		wfSpan:    wfSpan,
	}
	for i, id := range wf.order {
		d.modes[i] = assign(wf.Name, id)
	}
	return d
}

// finished reports whether every task is done.
func (d *dagRun) finished() bool { return d.nDone == len(d.done) }

// markDone records task i as finished, by a win or by an earlier run (a
// rescue DAG's done set, which must be loaded before countdown).
func (d *dagRun) markDone(i int) {
	d.done[i] = true
	d.nDone++
}

// countdown counts every unfinished task's unfinished parents (rescue-done
// parents are already satisfied) and seeds the ready set with the tasks
// that have none.
func (d *dagRun) countdown() {
	for i, id := range d.wf.order {
		if d.done[i] {
			continue
		}
		n := 0
		for _, par := range d.wf.parents[id] {
			if !d.done[d.wf.index[par]] {
				n++
			}
		}
		d.waiting[i] = n
		if n == 0 {
			d.ready = append(d.ready, i)
		}
	}
}

// markReady inserts a task into the ready set, keeping declaration order.
func (d *dagRun) markReady(i int) {
	at, _ := slices.BinarySearch(d.ready, i)
	d.ready = slices.Insert(d.ready, at, i)
}

// submitReady submits ready tasks in declaration order, skipping (and
// keeping) those whose retry backoff gate is still closed at now, until the
// set is exhausted or the MaxInflight throttle (DAGMan -maxjobs) is
// reached. started, when non-nil, is told of every new flight right after
// its submission. It submits exactly what a scan over every task would: a
// task outside the set cannot be ready, and no submission changes another
// task's readiness.
func (d *dagRun) submitReady(now time.Duration, started func(i int, f *flight)) error {
	kept := d.ready[:0]
	next := 0
	var err error
	for ; next < len(d.ready); next++ {
		if d.e.MaxInflight > 0 && len(d.flying) >= d.e.MaxInflight {
			break
		}
		i := d.ready[next]
		if now < d.notBefore[i] {
			kept = append(kept, i)
			continue
		}
		var f *flight
		if f, err = d.submitOne(i); err != nil {
			break
		}
		if started != nil {
			started(i, f)
		}
	}
	d.ready = append(kept, d.ready[next:]...)
	return err
}

// flyingAt returns where task i sits (or would sit) in the flying list.
func (d *dagRun) flyingAt(i int) int {
	id := d.wf.order[i]
	return sort.Search(len(d.flying), func(k int) bool { return d.wf.order[d.flying[k]] >= id })
}

// land takes task i out of flight.
func (d *dagRun) land(i int) {
	d.inflight[i] = nil
	at := d.flyingAt(i)
	d.flying = slices.Delete(d.flying, at, at+1)
}

// abandonedJobs counts jobs still in flight — at abort time their results
// are discarded and the rescue DAG re-runs those tasks.
func (d *dagRun) abandonedJobs() int {
	n := 0
	for _, i := range d.flying {
		n += len(d.inflight[i].jobs)
	}
	return n
}

// winnerIndex returns the index of the earliest-finishing completed copy of
// the flight, or -1 when none has completed. Ties break to the lowest index
// (the primary before its hedges).
func (d *dagRun) winnerIndex(f *flight) int {
	winIdx := -1
	for i, job := range f.jobs {
		if job.Status() != condor.StatusCompleted {
			continue
		}
		if winIdx < 0 || job.FinishedAt < f.jobs[winIdx].FinishedAt {
			winIdx = i
		}
	}
	return winIdx
}

// observeWin resolves a task whose copy winIdx completed: the flight is
// retired, still-running losers are abandoned (they finish on their own and
// their results are discarded), hedge accounting is settled, the task's
// provenance is recorded, and its children's countdowns advance. It returns
// how many children became ready. The attempt span closes now — in poll
// mode that is the poll tick after completion (its tail is the DAGMan-poll
// slack), in the event-driven modes it is the moment of observation.
func (d *dagRun) observeWin(i int, f *flight, winIdx int) (released int) {
	id := d.wf.order[i]
	win := f.jobs[winIdx]
	d.land(i)
	d.markDone(i)
	d.e.Budget.OnSuccess()
	for k, hs := range f.spans {
		if hs == nil {
			continue
		}
		if k == winIdx {
			hs.SetLabel("status", "won")
		} else {
			hs.SetLabel("status", "abandoned")
		}
		hs.End()
	}
	if f.hedged[winIdx] {
		d.res.HedgeWins++
		f.attempt.SetLabel("hedge-win", "1")
	}
	f.attempt.SetLabel("node", win.Node())
	f.attempt.End()
	d.res.Tasks[id] = &TaskResult{
		ID:          id,
		Mode:        d.modes[i],
		Node:        win.Node(),
		Attempts:    d.attempts[i],
		SubmittedAt: win.SubmittedAt,
		StartedAt:   win.StartedAt,
		FinishedAt:  win.FinishedAt,
	}
	for _, child := range d.wf.childs[id] {
		c := d.wf.index[child]
		if d.done[c] {
			continue // finished by an earlier run
		}
		if d.waiting[c]--; d.waiting[c] == 0 {
			d.markReady(c)
			released++
		}
	}
	return released
}

// pruneFailed drops the flight's failed copies, ending their hedge spans.
// It reports whether the whole attempt is dead (no copies remain).
func (d *dagRun) pruneFailed(f *flight) (attemptDead bool) {
	keptJobs, keptSpans, keptHedged := f.jobs[:0], f.spans[:0], f.hedged[:0]
	for i, job := range f.jobs {
		if job.Status() == condor.StatusFailed {
			if f.spans[i] != nil {
				f.spans[i].SetLabel("status", "failed")
				f.spans[i].End()
			}
			continue
		}
		keptJobs = append(keptJobs, job)
		keptSpans = append(keptSpans, f.spans[i])
		keptHedged = append(keptHedged, f.hedged[i])
	}
	f.jobs, f.spans, f.hedged = keptJobs, keptSpans, keptHedged
	return len(f.jobs) == 0
}

// failAttempt handles a task attempt with no live copies left: it takes
// the flight out of the in-flight set and ends its attempt span. It either
// authorizes a resubmission after the returned backoff, or returns the
// AbortError (retries exhausted, or the engine-wide retry budget denied the
// resubmission) that ends the run.
func (d *dagRun) failAttempt(p *sim.Proc, i int, f *flight) (time.Duration, *AbortError) {
	d.land(i)
	f.attempt.SetLabel("status", "failed")
	f.attempt.End()
	id := d.wf.order[i]
	if d.attempts[i] >= d.e.Retry.Attempts() {
		d.wfSpan.SetLabel("status", "aborted")
		// Per-task retries exhausted: abort with a rescue capturing
		// completed-task state. Jobs still in flight are abandoned (their
		// results discarded); the rescue DAG re-runs those tasks.
		return 0, &AbortError{
			Task:     id,
			Attempts: d.attempts[i],
			Reason:   AbortRetries,
			Rescue:   d.e.buildRescue(d.wf, d.res, id, d.abandonedJobs()),
		}
	}
	if !d.e.Budget.TryRetry() {
		// The engine-wide retry budget denied the resubmission: failures
		// are outpacing successes, so degrade gracefully — abort with a
		// rescue instead of joining the storm.
		d.wfSpan.SetLabel("status", "aborted")
		return 0, &AbortError{
			Task:     id,
			Attempts: d.attempts[i],
			Reason:   AbortRetryBudget,
			Rescue:   d.e.buildRescue(d.wf, d.res, id, d.abandonedJobs()),
		}
	}
	// Exponential backoff before resubmission, jittered so concurrent
	// workflows don't resubmit in lockstep.
	return d.e.Retry.Backoff(d.attempts[i], p.Rand()), nil
}

// deadlineAbort builds the AbortError for a run that outlived its deadline.
// The run's in-flight copies still waiting in the condor queue are removed
// (condor_rm): work past the deadline is dropped, as the serving layer
// drops invocations past it, and nothing would observe their results.
// Matched copies run on and are discarded, as after any abort.
func (d *dagRun) deadlineAbort() *AbortError {
	d.wfSpan.SetLabel("status", "aborted")
	for _, i := range d.flying {
		for _, job := range d.inflight[i].jobs {
			d.e.Pool.Remove(job)
		}
	}
	return &AbortError{
		Reason: AbortDeadline,
		Rescue: d.e.buildRescue(d.wf, d.res, "", d.abandonedJobs()),
	}
}

// submitOne starts a new attempt of task i: it opens the attempt span,
// plans and submits the condor job, and registers the flight.
func (d *dagRun) submitOne(i int) (*flight, error) {
	id, task := d.wf.order[i], d.wf.specs[i]
	sp := d.tracer.Start(d.wfSpan, "wms", "task",
		trace.L("workflow", d.wf.Name), trace.L("task", id),
		trace.L("mode", d.modes[i].String()),
		trace.L("attempt", strconv.Itoa(d.attempts[i]+1)))
	popCur := d.tracer.Push(sp) // condor job span nests under the attempt
	job, err := d.e.submitTask(d.wf, task, d.modes[i], d.absDeadline)
	popCur()
	if err != nil {
		sp.End()
		return nil, err
	}
	d.attempts[i]++
	f := &flight{attempt: sp, jobs: []*condor.Job{job}, spans: []*trace.Span{nil}, hedged: []bool{false}}
	d.inflight[i] = f
	d.flying = slices.Insert(d.flying, d.flyingAt(i), i)
	return f, nil
}

// hedgeCap returns the maximum number of speculative copies per attempt.
func (d *dagRun) hedgeCap() int {
	hedgeMax := d.e.HedgeMax
	if hedgeMax <= 0 {
		hedgeMax = 1
	}
	return hedgeMax
}

// submitHedgeCopy launches one speculative duplicate of in-flight task i.
// The copies race; whoever observes completions keeps whichever finishes
// first.
func (d *dagRun) submitHedgeCopy(i int, f *flight) (*condor.Job, error) {
	id, task := d.wf.order[i], d.wf.specs[i]
	hs := d.tracer.Start(f.attempt, "wms", "hedge",
		trace.L("workflow", d.wf.Name), trace.L("task", id),
		trace.L("copy", strconv.Itoa(len(f.jobs))))
	popCur := d.tracer.Push(hs)
	job, err := d.e.submitTask(d.wf, task, d.modes[i], d.absDeadline)
	popCur()
	if err != nil {
		hs.End()
		return nil, err
	}
	d.res.Hedges++
	f.jobs = append(f.jobs, job)
	f.spans = append(f.spans, hs)
	f.hedged = append(f.hedged, true)
	return job, nil
}
