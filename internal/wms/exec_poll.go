package wms

import (
	"time"

	"repro/internal/sim"
)

// runPoll is the DAGMan-style central loop (config.ExecPoll, the default):
// it releases ready tasks only when its poll tick observes the queue, so a
// completed task's successors wait up to one DAGManPoll interval — the
// `dagman-poll` critical-path bucket. This driver reproduces the seed
// engine's behaviour byte for byte: the operation order (and hence every RNG
// draw and span) is identical to the pre-refactor loop, which the seed-compat
// goldens in internal/experiments and testdata/pollcompat.golden pin down.
// Each tick costs what changed since the last one: it observes the tasks in
// flight and submits from the ready set, never rescanning the whole DAG.
func (e *Engine) runPoll(p *sim.Proc, d *dagRun) error {
	// submitHedges launches speculative copies of straggling tasks: any
	// in-flight task whose newest copy has sat longer than HedgeAfter gets
	// a duplicate submission, up to HedgeMax copies per attempt. The copies
	// race; the poll loop keeps whichever finishes first.
	submitHedges := func() error {
		if e.HedgeAfter <= 0 {
			return nil
		}
		hedgeMax := d.hedgeCap()
		for _, i := range d.flying {
			f := d.inflight[i]
			if len(f.jobs) >= 1+hedgeMax {
				continue
			}
			newest := f.jobs[len(f.jobs)-1]
			if p.Now()-newest.SubmittedAt < e.HedgeAfter {
				continue
			}
			if _, err := d.submitHedgeCopy(i, f); err != nil {
				return err
			}
		}
		return nil
	}

	// DAGMan instances start with independent poll phases (they are separate
	// condor_dagman processes in reality); without this, concurrent
	// workflows lock step to the negotiation cycle and per-task overheads
	// vanish into the quantization.
	p.Sleep(time.Duration(p.Rand().Float64() * float64(e.Prm.DAGManPoll)))

	if err := d.submitReady(p.Now(), nil); err != nil {
		return err
	}
	for !d.finished() {
		p.Sleep(e.Prm.DAGManPoll)
		// Workflow deadline: stop resubmitting and abort with a rescue; the
		// serving layer is already dropping the in-flight work past it.
		if d.absDeadline > 0 && p.Now() >= d.absDeadline {
			return d.deadlineAbort()
		}
		// Observe the tasks in flight at the tick, in ID order; resolving
		// one takes it out of d.flying, so walk a snapshot.
		d.scan = append(d.scan[:0], d.flying...)
		for _, i := range d.scan {
			f := d.inflight[i]
			// Winner: the earliest-finishing completed copy (primary or
			// hedge). Still-running losers are abandoned — they finish on
			// their own and their results are discarded.
			if winIdx := d.winnerIndex(f); winIdx >= 0 {
				d.observeWin(i, f, winIdx)
				continue
			}
			// Drop failed copies; the attempt fails only when none remain.
			if !d.pruneFailed(f) {
				continue
			}
			backoff, abort := d.failAttempt(p, i, f)
			if abort != nil {
				return abort
			}
			d.notBefore[i] = p.Now() + backoff
			d.markReady(i)
		}
		if err := submitHedges(); err != nil {
			return err
		}
		if err := d.submitReady(p.Now(), nil); err != nil {
			return err
		}
	}
	d.res.FinishedAt = p.Now()
	return nil
}
