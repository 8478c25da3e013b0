// Package condor models the HTCondor batch system the paper's Pegasus
// deployment runs on: a schedd holding the job queue, one startd per worker
// advertising static slots (one per core), and a negotiator that matches
// idle jobs to free slots on a fixed cycle. Matched jobs pay a serialized
// shadow-spawn cost at the schedd, have their input sandbox transferred from
// the submit node (through its uplink — the bottleneck behind Fig. 2's
// container slope), execute on the claimed worker, and transfer outputs
// back.
//
// The absolute makespans in the paper's Fig. 6 are dominated by this layer:
// a sequential workflow pays roughly one negotiation cycle per task.
package condor

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExecContext is what a job's function receives on the execution node.
type ExecContext struct {
	// Proc is the simulation process running the job.
	Proc *sim.Proc
	// Node is the claimed worker.
	Node *cluster.Node
	// Job is the job being executed.
	Job *Job
}

// JobFunc is the job's payload, executed on the claimed worker node.
type JobFunc func(ctx *ExecContext) error

// JobStatus tracks a job through the queue.
type JobStatus int

// Job states, mirroring condor_q.
const (
	StatusIdle JobStatus = iota
	StatusRunning
	StatusCompleted
	StatusFailed
)

func (s JobStatus) String() string {
	switch s {
	case StatusIdle:
		return "Idle"
	case StatusRunning:
		return "Running"
	case StatusCompleted:
		return "Completed"
	case StatusFailed:
		return "Failed"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// Job is one queued unit of work.
type Job struct {
	ID   int
	Name string
	// Priority orders competition for scarce slots: higher runs first
	// (condor's JobPrio). Ties break by submission order.
	Priority int
	// Requires is the job's ClassAd-style requirements expression: the
	// negotiator only matches the job to nodes it accepts. nil matches any
	// node.
	Requires func(*cluster.Node) bool
	// TransferInputBytes is the input sandbox shipped submit → worker
	// before execution (matrices; plus the container image in Pegasus's
	// container universe).
	TransferInputBytes int64
	// TransferOutputBytes is shipped worker → submit afterwards.
	TransferOutputBytes int64
	// InputLFNs are the job's logical input file names, consumed by the
	// data-locality placement policy (scratch residency scoring).
	InputLFNs []string
	// Run is the payload.
	Run JobFunc

	status JobStatus
	node   string
	slot   int
	done   *sim.Future[error]

	// span covers the job's full queue lifetime; queue and claim are its
	// matchmaking-wait and slot-occupancy children, and the per-phase spans
	// (shadow, transfers, payload) nest under claim so sibling intervals
	// never overlap — critical-path accounting relies on that.
	span  *trace.Span
	queue *trace.Span
	claim *trace.Span

	// Timestamps for analysis.
	SubmittedAt time.Duration
	MatchedAt   time.Duration
	StartedAt   time.Duration
	FinishedAt  time.Duration
}

// Status returns the job's queue status.
func (j *Job) Status() JobStatus { return j.status }

// Node returns the worker that ran (or is running) the job.
func (j *Job) Node() string { return j.node }

// Slot returns the slot index the job was matched to on its node.
func (j *Job) Slot() int { return j.slot }

type startd struct {
	node  *cluster.Node
	slots int
	free  int
	// claimed tracks which slot indices are occupied, so traces can name
	// the exact slot a job ran on (slot-exclusivity is asserted on spans).
	claimed []bool
	// offline marks a crashed node: it matches no jobs and its slots are
	// unclaimed until RestoreNode.
	offline bool
	// epoch increments on every crash, so jobs claimed before the crash
	// cannot double-free slots the reboot already reset, and their results
	// are recognisably stale.
	epoch int
}

// Schedd is the submit-side daemon plus the negotiator and startds of the
// pool. Two negotiation models are supported (config.PerJobNegotiation):
// per-job submit-triggered matching (default) and a strict global cycle.
type Schedd struct {
	env *sim.Env
	cl  *cluster.Cluster
	prm config.Params

	idle     []*Job // cycle mode: jobs awaiting the next cycle
	blocked  []*Job // per-job mode: matched but no slot free yet
	startds  []*startd
	policy   sched.Policy
	rrOffset int               // rotates tie-breaking among equally free startds
	cands    []sched.Candidate // pickStartdFor's reusable candidate buffer
	req      sched.Request     // pickStartdFor's reusable request
	nextID   int
	shadow   *sim.Semaphore // serializes shadow spawns at the schedd
	rng      *sim.RNG
	faults   *faults.Injector
	stopped  bool
	started  bool
	running  int
	finished int
}

// New builds a pool: one startd per worker with one slot per core.
func New(env *sim.Env, cl *cluster.Cluster, prm config.Params) *Schedd {
	s := &Schedd{
		env:    env,
		cl:     cl,
		prm:    prm,
		shadow: sim.NewSemaphore(env, 1),
		rng:    env.Rand().Fork(),
	}
	for _, w := range cl.Workers {
		s.startds = append(s.startds, &startd{node: w, slots: w.Cores, free: w.Cores, claimed: make([]bool, w.Cores)})
	}
	s.policy = s.policyFor(prm.CondorPlacementPolicy)
	return s
}

// policyFor builds the named matchmaking policy. The empty name selects the
// seed negotiator's behaviour: most free slots, ties rotated round-robin so
// no machine is permanently favoured.
func (s *Schedd) policyFor(name string) sched.Policy {
	filters := []sched.Filter{
		sched.FilterFunc("online", func(_ *sched.Request, c *sched.Candidate) bool {
			return !c.Aux.(*startd).offline
		}),
		sched.SlotFree(),
		sched.Requirements(),
	}
	var scores []sched.Score
	switch name {
	case "", sched.PolicyMostFreeRR:
		name = sched.PolicyMostFreeRR
		scores = []sched.Score{sched.MostFree()}
	case sched.PolicyDataLocality:
		// Input-file residency dominates; most-free breaks ties among nodes
		// holding the same fraction of the job's inputs.
		dl := sched.DataLocality(func(n *cluster.Node, lfn string) bool {
			return n.Scratch.Has(lfn)
		})
		dl.Weight = 1000
		scores = []sched.Score{dl, sched.MostFree()}
	default:
		panic(fmt.Sprintf("condor: unknown placement policy %q", name))
	}
	pol := sched.Policy{Name: name, Filters: filters, Scores: scores}
	if err := pol.Validate(); err != nil {
		panic(err)
	}
	return pol
}

// Start launches the negotiator (cycle mode only; per-job mode matches from
// submit-triggered events). Call once before submitting jobs.
func (s *Schedd) Start() {
	if s.started {
		panic("condor: Start called twice")
	}
	s.started = true
	if !s.prm.PerJobNegotiation {
		s.env.Go("negotiator", s.negotiatorLoop)
	}
}

// Shutdown stops the negotiator after its current cycle. Jobs already
// matched run to completion; idle jobs stay idle forever unless removed.
func (s *Schedd) Shutdown() { s.stopped = true }

// Remove takes a job that has not been matched yet out of the queue, like
// condor_rm: the job fails without running, its queue and job spans end
// (the job span labelled status=removed), and Wait returns the error. A
// matched job is left to run to completion. Remove reports whether it
// removed the job.
func (s *Schedd) Remove(j *Job) bool {
	if j.status != StatusIdle {
		return false
	}
	queued := func(q *Job) bool { return q == j }
	s.idle = slices.DeleteFunc(s.idle, queued)
	s.blocked = slices.DeleteFunc(s.blocked, queued)
	j.status = StatusFailed
	j.queue.End()
	j.span.SetLabel("status", "removed")
	j.span.End()
	j.done.Set(fmt.Errorf("condor: job %d removed before it was matched", j.ID))
	return true
}

// AttachFaults connects the pool to the fault injector: node crashes
// (KindNodeCrash with a worker name as target) take the startd offline and
// restore it at window end, and the legacy JobFailureProb knob is absorbed
// as the standing KindJobFailure rate.
func (s *Schedd) AttachFaults(in *faults.Injector) {
	s.faults = in
	if s.prm.JobFailureProb > 0 {
		in.SetRate(faults.KindJobFailure, "", s.prm.JobFailureProb)
	}
	in.OnFault(faults.KindNodeCrash, func(f faults.Fault, begin bool) {
		if begin {
			s.CrashNode(f.Target)
		} else {
			s.RestoreNode(f.Target)
		}
	})
}

// CrashNode takes a worker's startd offline: its free slots vanish, it
// matches no further jobs, and jobs currently claimed on it lose their
// results when they next reach an observable completion point. Unknown node
// names are ignored (the fault may target a node outside this pool).
func (s *Schedd) CrashNode(name string) {
	for _, sd := range s.startds {
		if sd.node.Name != name {
			continue
		}
		sd.offline = true
		sd.epoch++
		sd.free = 0
		return
	}
}

// RestoreNode brings a crashed startd back with all slots free (the reboot
// wiped its claims) and immediately offers the slots to blocked jobs.
func (s *Schedd) RestoreNode(name string) {
	for _, sd := range s.startds {
		if sd.node.Name != name {
			continue
		}
		if !sd.offline {
			return
		}
		sd.offline = false
		sd.free = sd.slots
		for i := range sd.claimed {
			sd.claimed[i] = false
		}
		if s.prm.PerJobNegotiation && !s.stopped {
			s.dispatchBlocked(sd.free)
		}
		return
	}
}

// TotalSlots returns the pool's slot count.
func (s *Schedd) TotalSlots() int {
	n := 0
	for _, sd := range s.startds {
		n += sd.slots
	}
	return n
}

// FreeSlots returns currently unclaimed slots.
func (s *Schedd) FreeSlots() int {
	n := 0
	for _, sd := range s.startds {
		n += sd.free
	}
	return n
}

// QueueDepth returns the number of jobs waiting to start.
func (s *Schedd) QueueDepth() int { return len(s.idle) + len(s.blocked) }

// Completed returns the number of jobs finished (successfully or not).
func (s *Schedd) Completed() int { return s.finished }

// Submit queues a job at default priority. It never blocks; wait for
// completion with Wait.
func (s *Schedd) Submit(name string, inBytes, outBytes int64, fn JobFunc) *Job {
	return s.SubmitPriority(name, 0, inBytes, outBytes, fn)
}

// SubmitPriority queues a job with an explicit priority (condor JobPrio):
// when slots are scarce, higher-priority jobs start first.
func (s *Schedd) SubmitPriority(name string, priority int, inBytes, outBytes int64, fn JobFunc) *Job {
	return s.SubmitConstrained(name, priority, nil, inBytes, outBytes, fn)
}

// SubmitConstrained queues a job with a priority and a requirements
// expression the matched node must satisfy (condor's Requirements ClassAd).
func (s *Schedd) SubmitConstrained(name string, priority int, requires func(*cluster.Node) bool, inBytes, outBytes int64, fn JobFunc) *Job {
	return s.SubmitJob(JobSpec{
		Name:                name,
		Priority:            priority,
		Requires:            requires,
		TransferInputBytes:  inBytes,
		TransferOutputBytes: outBytes,
		Run:                 fn,
	})
}

// JobSpec describes a job to queue (the full submit-file surface; the
// Submit* helpers cover the common subsets).
type JobSpec struct {
	Name     string
	Priority int
	Requires func(*cluster.Node) bool
	// TransferInputBytes/TransferOutputBytes size the sandbox transfers.
	TransferInputBytes  int64
	TransferOutputBytes int64
	// InputLFNs are the job's logical input files, consumed by the
	// data-locality placement policy.
	InputLFNs []string
	Run       JobFunc
}

// SubmitJob queues a job described by spec. It never blocks; wait for
// completion with Wait.
func (s *Schedd) SubmitJob(spec JobSpec) *Job {
	if !s.started {
		panic("condor: Submit before Start")
	}
	j := &Job{
		ID:                  s.nextID,
		Name:                spec.Name,
		Priority:            spec.Priority,
		Requires:            spec.Requires,
		TransferInputBytes:  spec.TransferInputBytes,
		TransferOutputBytes: spec.TransferOutputBytes,
		InputLFNs:           spec.InputLFNs,
		Run:                 spec.Run,
		done:                sim.NewFuture[error](s.env),
		SubmittedAt:         s.env.Now(),
	}
	s.nextID++
	tr := trace.FromEnv(s.env)
	j.span = tr.StartCurrent("condor", "job", trace.L("job", j.Name))
	j.queue = tr.Start(j.span, "condor", "queue", trace.L("job", j.Name))
	if s.prm.PerJobNegotiation {
		// The schedd's reschedule request triggers a negotiation for this
		// job after the (jittered) negotiation latency.
		delay := s.rng.Jitter(s.prm.NegotiationDelay, s.prm.NegotiatorJitterFrac)
		s.env.After(delay, func() { s.tryMatch(j) })
	} else {
		s.idle = insertByPriority(s.idle, j)
	}
	return j
}

// tryMatch (per-job mode) claims a slot for the job or parks it until one
// frees, in priority order.
func (s *Schedd) tryMatch(j *Job) {
	if s.stopped || j.status != StatusIdle { // removed while awaiting negotiation
		return
	}
	sd, dec := s.pickStartdFor(j)
	if sd == nil {
		s.blocked = insertByPriority(s.blocked, j)
		return
	}
	s.dispatch(j, sd, dec)
}

// insertByPriority keeps the queue ordered by descending priority,
// submission order within a priority.
func insertByPriority(q []*Job, j *Job) []*Job {
	i := len(q)
	for i > 0 && q[i-1].Priority < j.Priority {
		i--
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = j
	return q
}

// dispatch claims the slot and launches the job's runner process. The
// startd's epoch is captured at claim time so a crash during execution is
// detectable. dec is the placement decision that chose sd, recorded as a
// span under the job.
func (s *Schedd) dispatch(j *Job, sd *startd, dec sched.Decision) {
	sd.free--
	j.slot = 0
	for i, taken := range sd.claimed {
		if !taken {
			j.slot = i
			break
		}
	}
	sd.claimed[j.slot] = true
	j.status = StatusRunning
	j.node = sd.node.Name
	j.MatchedAt = s.env.Now()
	s.running++
	j.queue.End()
	j.span.SetLabel("node", j.node)
	slot := fmt.Sprintf("%s:%d", j.node, j.slot)
	j.span.SetLabel("slot", slot)
	j.claim = trace.FromEnv(s.env).Start(j.span, "condor", "claim",
		trace.L("job", j.Name), trace.L("node", j.node), trace.L("slot", slot))
	sched.Record(trace.FromEnv(s.env), j.span, "condor", s.policy, jobRequest(j), dec)
	epoch := sd.epoch
	s.env.Go(fmt.Sprintf("job-%d", j.ID), func(jp *sim.Proc) {
		s.runJob(jp, j, sd, epoch)
	})
}

// dispatchBlocked hands up to max freed slots to blocked jobs (per-job
// mode), in priority order, skipping jobs whose requirements no free node
// satisfies.
func (s *Schedd) dispatchBlocked(max int) {
	for n := 0; n < max; n++ {
		matched := false
		for i, next := range s.blocked {
			if nsd, dec := s.pickStartdFor(next); nsd != nil {
				s.blocked = append(s.blocked[:i], s.blocked[i+1:]...)
				s.dispatch(next, nsd, dec)
				matched = true
				break
			}
		}
		if !matched {
			return
		}
	}
}

// Wait blocks until the job completes, returning its error.
func (s *Schedd) Wait(p *sim.Proc, j *Job) error {
	return j.done.Get(p)
}

// negotiatorLoop (cycle mode) matches idle jobs to free slots once per
// (jittered) cycle.
func (s *Schedd) negotiatorLoop(p *sim.Proc) {
	for !s.stopped {
		p.Sleep(s.rng.Jitter(s.prm.NegotiatorCycle, s.prm.NegotiatorJitterFrac))
		if s.stopped {
			return
		}
		s.matchmake()
	}
}

// matchmake assigns idle jobs to free slots in priority order, spreading
// them across startds by most-free-slots first. Jobs whose requirements no
// free node satisfies stay idle without blocking jobs behind them.
func (s *Schedd) matchmake() {
	remaining := s.idle[:0]
	for _, j := range s.idle {
		sd, dec := s.pickStartdFor(j)
		if sd == nil {
			remaining = append(remaining, j)
			continue
		}
		s.dispatch(j, sd, dec)
	}
	s.idle = remaining
}

// jobRequest maps a job onto the placement layer's request model.
func jobRequest(j *Job) sched.Request {
	return sched.Request{Name: j.Name, Inputs: j.InputLFNs, Requires: j.Requires}
}

// pickStartdFor runs the configured placement policy over the pool for one
// job. The rotation offset advances on every negotiation attempt — matched
// or not — exactly as the seed matchmaker did, so the round-robin stream is
// unchanged.
//
// The candidate buffer and request are the Schedd's and are rebuilt on
// every pick (a fresh request per pick would escape to the heap through the
// policy's plugins), so the returned Decision (whose Winner points into the
// buffer) is valid only until the next pick. Every caller consumes it
// first: it either drops the decision or passes it straight to dispatch,
// which records it through sched.Record before any other pick can run.
func (s *Schedd) pickStartdFor(j *Job) (*startd, sched.Decision) {
	s.rrOffset++
	s.cands = s.cands[:0]
	for _, sd := range s.startds {
		s.cands = append(s.cands, sched.Candidate{Name: sd.node.Name, Node: sd.node, Free: sd.free, Aux: sd})
	}
	s.req = jobRequest(j)
	d := s.policy.Pick(&s.req, s.cands, s.rrOffset)
	if d.Winner == nil {
		return nil, d
	}
	return d.Winner.Aux.(*startd), d
}

// injectFailure decides whether this job suffers a transient injected
// failure (starter crash, eviction). With a fault injector attached the
// framework's KindJobFailure rate governs; otherwise the legacy
// JobFailureProb knob rolls against the schedd's own RNG, preserving the
// pre-framework random stream.
func (s *Schedd) injectFailure(sd *startd) bool {
	if s.faults != nil {
		return s.faults.Roll(faults.KindJobFailure, sd.node.Name)
	}
	return s.prm.JobFailureProb > 0 && s.rng.Float64() < s.prm.JobFailureProb
}

// runJob drives one matched job: serialized shadow spawn, sandbox transfer
// in, starter setup, payload, transfer out. epoch is the startd epoch
// captured at claim time; a mismatch afterwards means the node crashed
// underneath the job.
func (s *Schedd) runJob(p *sim.Proc, j *Job, sd *startd, epoch int) {
	tr := trace.FromEnv(s.env)
	// condor_shadow processes spawn one at a time at the schedd; this
	// serialization is the dominant per-job dispatch cost (Fig. 2's native
	// slope).
	sh := tr.Start(j.claim, "condor", "shadow")
	s.shadow.Acquire(p, 1)
	p.Sleep(p.Rand().Jitter(s.prm.ShadowSpawn, s.prm.CondorJitterFrac))
	s.shadow.Release(1)
	sh.End()

	xin := tr.Start(j.claim, "condor", "xfer-in", trace.L("node", sd.node.Name))
	s.cl.Net.Transfer(p, cluster.SubmitNodeName, sd.node.Name, j.TransferInputBytes)
	xin.End()
	js := tr.Start(j.claim, "condor", "job-start")
	p.Sleep(p.Rand().Jitter(s.prm.JobStartOverhead, s.prm.CondorJitterFrac))
	js.End()
	j.StartedAt = p.Now()

	var err error
	if sd.epoch != epoch {
		// The node crashed between claim and start: the sandbox is gone.
		err = faults.Transientf("condor: job %d lost: node %s crashed before start", j.ID, sd.node.Name)
	} else if s.injectFailure(sd) {
		// Injected transient failure (starter crash, eviction): the job
		// dies partway through its execution.
		payload := tr.Start(j.claim, "condor", "payload", trace.L("status", "evicted"))
		p.Sleep(time.Duration(s.rng.Float64() * float64(time.Second)))
		payload.End()
		err = fmt.Errorf("condor: job %d evicted on %s (injected fault)", j.ID, sd.node.Name)
	} else {
		payload := tr.Start(j.claim, "condor", "payload")
		pop := tr.Push(payload)
		err = j.Run(&ExecContext{Proc: p, Node: sd.node, Job: j})
		pop()
		payload.End()
		if err == nil && sd.epoch != epoch {
			// The node crashed mid-execution; the charged work ran but its
			// results died with the machine (see the package faults
			// modelling note).
			err = faults.Transientf("condor: job %d lost: node %s crashed during execution", j.ID, sd.node.Name)
		}
	}

	if err == nil && j.TransferOutputBytes > 0 {
		xout := tr.Start(j.claim, "condor", "xfer-out", trace.L("node", sd.node.Name))
		s.cl.Net.Transfer(p, sd.node.Name, cluster.SubmitNodeName, j.TransferOutputBytes)
		xout.End()
	}
	j.FinishedAt = p.Now()
	// Only release the slot into the epoch it was claimed from: after a
	// crash the reboot resets the slot count itself.
	if sd.epoch == epoch && !sd.offline {
		sd.free++
		sd.claimed[j.slot] = false
	}
	j.claim.End()
	s.running--
	s.finished++
	// Per-job mode: hand the freed slot to the first blocked job (priority
	// order) whose requirements some free node satisfies.
	if s.prm.PerJobNegotiation && !s.stopped {
		s.dispatchBlocked(1)
	}
	if err != nil {
		// A failed job pays a requeue penalty — the scheduler only notices
		// the failure and can re-match it after another negotiation cycle.
		// The job stays Running (from the queue's perspective, the claim is
		// being cleaned up) until the penalty elapses.
		rq := tr.Start(j.span, "condor", "requeue")
		p.Sleep(s.rng.Jitter(s.prm.EffectiveRequeueDelay(), s.prm.NegotiatorJitterFrac))
		rq.End()
		j.status = StatusFailed
		j.span.SetLabel("status", "failed")
	} else {
		j.status = StatusCompleted
	}
	j.span.End()
	j.done.Set(err)
}
