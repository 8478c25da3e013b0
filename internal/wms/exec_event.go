package wms

import (
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/condor"
	"repro/internal/knative"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TaskSettledEventType is the CloudEvents type published for every task copy
// that settles (completes or fails) under the trigger execution mode. The
// event subject is "<workflow>/<task>"; the per-run trigger filters on the
// workflow prefix.
const TaskSettledEventType = "dev.repro.wms.task.settled"

// eventRun drives one workflow without a poll loop: completions release
// successors the moment they are observed. With broker == nil it is
// Wukong-style decentralized scheduling — the completing task's watcher
// directly enqueues ready successors. With a broker it is Triggerflow-style
// orchestration — the completing node publishes a typed event through the
// knative eventing layer and a filtered trigger makes the release decision.
//
// Both use the dagRun's dependency countdown and ready set, as the poll loop
// does; they differ from it only in releasing at observation time.
type eventRun struct {
	d      *dagRun
	broker *knative.Broker // nil = decentralized

	// fin resolves with nil when the last task completes, or with the error
	// (abort, submission failure) that ends the run. Watchers, hedge
	// timers, and trigger handlers all bail once it settles.
	fin *sim.Future[error]
}

// runEvent executes the workflow in decentralized (broker == nil) or
// trigger (broker != nil) mode.
func (e *Engine) runEvent(p *sim.Proc, d *dagRun, broker *knative.Broker) error {
	r := &eventRun{
		d:      d,
		broker: broker,
		fin:    sim.NewFuture[error](e.Env),
	}
	if d.finished() { // rescue already finished everything
		d.res.FinishedAt = p.Now()
		return nil
	}

	if broker != nil {
		prefix := d.wf.Name + "/"
		trig := broker.SubscribeFiltered("wms-"+d.wf.Name, TaskSettledEventType, prefix,
			func(hp *sim.Proc, ev knative.Event) {
				if i, ok := d.wf.index[strings.TrimPrefix(ev.Subject, prefix)]; ok {
					r.settle(hp, i)
				}
			})
		defer broker.Unsubscribe(trig)
	}

	// Deadline watchdog: poll mode checks the deadline every tick; here a
	// dedicated timer aborts the run the moment it passes.
	if d.absDeadline > 0 {
		e.Env.Go("wms-deadline-"+d.wf.Name, func(wp *sim.Proc) {
			if wait := d.absDeadline - wp.Now(); wait > 0 {
				wp.Sleep(wait)
			}
			if r.fin.Done() {
				return
			}
			r.finish(d.deadlineAbort())
		})
	}

	// Submit every dependency-free task.
	r.drain(p)

	return r.fin.Get(p)
}

// finish settles the run's terminal state exactly once.
func (r *eventRun) finish(err error) {
	if !r.fin.Done() {
		r.fin.Set(err)
	}
}

// drain submits ready tasks until the set empties or the MaxInflight
// throttle (DAGMan -maxjobs) is reached, arming each new flight's watcher
// and hedge timer. Submission errors end the run.
func (r *eventRun) drain(p *sim.Proc) {
	if r.fin.Done() {
		return
	}
	err := r.d.submitReady(p.Now(), func(i int, f *flight) {
		r.watchJob(i, f.jobs[0])
		r.armHedges(i, f)
	})
	if err != nil {
		r.finish(err)
	}
}

// armHedges runs the straggler timer for one attempt: once the newest copy
// has been in flight for HedgeAfter, a speculative duplicate is submitted,
// up to HedgeMax copies per attempt — the event-driven equivalent of the
// poll loop's per-tick hedge scan.
func (r *eventRun) armHedges(i int, f *flight) {
	d := r.d
	if d.e.HedgeAfter <= 0 {
		return
	}
	hedgeMax := d.hedgeCap()
	d.e.Env.Go("wms-hedge-"+d.wf.Name+"/"+d.wf.order[i], func(wp *sim.Proc) {
		for {
			if r.fin.Done() || d.inflight[i] != f {
				return
			}
			if len(f.jobs) >= 1+hedgeMax {
				return
			}
			newest := f.jobs[len(f.jobs)-1]
			if wait := d.e.HedgeAfter - (wp.Now() - newest.SubmittedAt); wait > 0 {
				wp.Sleep(wait)
				continue // re-check: the flight may have settled or grown
			}
			job, err := d.submitHedgeCopy(i, f)
			if err != nil {
				r.finish(err)
				return
			}
			r.watchJob(i, job)
		}
	})
}

// watchJob spawns the per-copy completion watcher: a process that blocks on
// the condor job and reacts the instant it settles. Decentralized mode makes
// the release decision right on the watcher; trigger mode publishes a typed
// event from the job's node and lets the broker's filtered trigger decide.
func (r *eventRun) watchJob(i int, job *condor.Job) {
	d := r.d
	id := d.wf.order[i]
	d.e.Env.Go("wms-watch-"+d.wf.Name+"/"+id, func(wp *sim.Proc) {
		_ = d.e.Pool.Wait(wp, job)
		if r.fin.Done() {
			return
		}
		if r.broker != nil {
			// Triggerflow path: the completing node publishes the settled
			// event; the broker's filtered trigger releases successors.
			node := job.Node()
			if node == "" {
				node = cluster.SubmitNodeName
			}
			_ = r.broker.Publish(wp, node, knative.Event{
				Type:    TaskSettledEventType,
				Source:  node,
				Subject: d.wf.Name + "/" + id,
			})
			return
		}
		r.settle(wp, i)
	})
}

// settle is the release decision for task i, run at observation time: it
// resolves wins (releasing successors immediately), prunes failed copies,
// and drives retry backoff and resubmission. It is idempotent — late events
// or watchers of abandoned copies find the flight gone and do nothing.
func (r *eventRun) settle(p *sim.Proc, i int) {
	if r.fin.Done() {
		return
	}
	d := r.d
	f := d.inflight[i]
	if f == nil {
		return // already resolved by an earlier copy's observation
	}
	if winIdx := d.winnerIndex(f); winIdx >= 0 {
		rel := d.tracer.Start(d.wfSpan, "wms", "release",
			trace.L("workflow", d.wf.Name), trace.L("task", d.wf.order[i]))
		released := d.observeWin(i, f, winIdx)
		rel.SetLabel("released", strconv.Itoa(released))
		rel.End()
		if d.finished() {
			d.res.FinishedAt = p.Now()
			r.finish(nil)
			return
		}
		r.drain(p) // newly ready successors plus any -maxjobs backlog
		return
	}
	if !d.pruneFailed(f) {
		return // live copies remain; their watchers will settle the task
	}
	backoff, abort := d.failAttempt(p, i, f)
	if abort != nil {
		r.finish(abort)
		return
	}
	// The observing process itself waits out the backoff and resubmits —
	// no notBefore gate, no poll tick.
	p.Sleep(backoff)
	if r.fin.Done() {
		return
	}
	d.markReady(i)
	r.drain(p)
}
