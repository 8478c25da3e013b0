// Package sim provides a deterministic discrete-event simulation kernel.
//
// An Env owns a virtual clock and a set of cooperatively scheduled processes.
// Exactly one process runs at a time; a process runs until it blocks on one
// of the kernel's primitives (Sleep, Chan, Future, Semaphore, WaitGroup,
// Signal) and the kernel then hands control to the next runnable process, or
// advances the virtual clock to the next pending event when no process is
// runnable. Because scheduling is strictly sequential and all randomness is
// drawn from a seeded generator, a simulation run is bit-for-bit reproducible
// for a given seed.
//
// The design mirrors classic process-based simulators (SimPy, OMNeT++): model
// code is written as ordinary straight-line Go in functions of the form
// func(*Proc), spawned with Env.Go. Shared state needs no locking — the baton
// hand-off between the scheduler and the single running process forms a
// happens-before chain over all model state.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"time"
)

// Env is a discrete-event simulation environment: a virtual clock, an event
// queue, and a run queue of processes. Create one with NewEnv and drive it
// with Run, RunUntil, or RunFor. An Env must be driven from a single
// goroutine that is not itself a simulation process.
type Env struct {
	now    time.Duration
	events eventQueue // near-horizon events, exact (at, seq) order
	wheel  timerWheel // far-future events, promoted into the heap on demand
	free   []*event   // recycled event structs; steady-state After is 0-alloc
	// batch is the tail of a same-timestamp chain currently being
	// delivered: its head was popped from the heap and the members fire
	// one per step, in seq order, without further heap traffic.
	batch *event
	// memo is the most recently scheduled chain head; a consecutive arm
	// for the same timestamp appends to its chain in O(1). memoGen detects
	// the head having fired or been recycled since.
	memo    *event
	memoGen uint64
	// Cancellation accounting. ncancel counts cancelled events still
	// buried anywhere (heap, wheel, or the in-flight batch) and nqueued
	// counts all buried events; both are kept exact by every lazy-drop
	// path so the compaction trigger never fires over an almost-clean
	// queue. compactions counts eager sweeps, for tests.
	ncancel     int
	nqueued     int
	compactions int
	wheelOff    bool // ablation: force everything into the heap
	ready       procRing
	procs       map[int]*Proc // live processes, for diagnostics
	procPool    []*Proc       // finished processes recycled by Go
	seq         uint64
	yield       baton
	cur         *Proc
	alive       int
	nextID      int
	rng         *RNG
	trace       TraceFunc
	attach      map[string]any
}

// TraceFunc receives structured trace records from Env.Tracef.
type TraceFunc func(at time.Duration, component, message string)

// NewEnv returns a fresh simulation environment whose random source is
// seeded with seed. Two environments with the same seed and the same model
// code execute identically.
func NewEnv(seed uint64) *Env {
	e := &Env{
		procs: make(map[int]*Proc),
		rng:   NewRNG(seed),
	}
	e.yield.init()
	e.wheel.init()
	return e
}

// DisableTimerWheel forces every event into the near-horizon heap,
// ablating the hierarchical timer wheel. It exists for benchmarks that
// compare the wheel against the heap-only baseline (the firing order is
// identical either way); call it before arming any timers.
func (e *Env) DisableTimerWheel() { e.wheelOff = true }

// Now returns the current virtual time, measured from the start of the
// simulation.
func (e *Env) Now() time.Duration { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *RNG { return e.rng }

// Alive reports the number of processes that have been spawned and have not
// yet returned. After Run it counts processes that are blocked forever
// (a modelling bug) or parked on primitives nobody will signal.
func (e *Env) Alive() int { return e.alive }

// SetTrace installs a trace sink. A nil sink disables tracing.
func (e *Env) SetTrace(f TraceFunc) { e.trace = f }

// Attach associates a value with the environment under key. Higher layers use
// it to share per-simulation singletons (e.g. a span tracer) across substrates
// without global state; keys are conventionally the owning package's path.
func (e *Env) Attach(key string, v any) {
	if e.attach == nil {
		e.attach = make(map[string]any)
	}
	e.attach[key] = v
}

// Attached returns the value stored under key by Attach, or nil.
func (e *Env) Attached(key string) any { return e.attach[key] }

// CurrentProc returns the process currently holding the scheduling baton, or
// nil when the scheduler itself (an event callback) is running. Because
// scheduling is strictly sequential this is unambiguous at any instant.
func (e *Env) CurrentProc() *Proc { return e.cur }

// Tracef emits a trace record tagged with the current virtual time.
// It is a no-op unless a sink was installed with SetTrace.
func (e *Env) Tracef(component, format string, args ...any) {
	if e.trace != nil {
		e.trace(e.now, component, fmt.Sprintf(format, args...))
	}
}

// DumpBlocked writes one line per live process to the sink, in spawn
// order — the first debugging step when a simulation fails to drain
// (Alive > 0 after Run): whatever is listed is parked on a primitive
// nobody will signal.
func (e *Env) DumpBlocked(sink func(line string)) {
	ids := make([]int, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		sink(fmt.Sprintf("%v [%s]", e.procs[id], e.procs[id].state))
	}
}

// Go spawns a new process executing fn and schedules it to run at the
// current virtual time. The name is used in traces and diagnostics.
// Process structs (and their hand-off batons) are recycled from completed
// processes; a *Proc handle is only meaningful while its process is alive.
func (e *Env) Go(name string, fn func(*Proc)) *Proc {
	var p *Proc
	if n := len(e.procPool); n > 0 {
		p = e.procPool[n-1]
		e.procPool[n-1] = nil
		e.procPool = e.procPool[:n-1]
	} else {
		p = &Proc{env: e}
		p.resume.init()
	}
	p.id = e.nextID
	p.name = name
	p.state = stateReady
	e.nextID++
	e.alive++
	e.procs[p.id] = p
	e.ready.push(p)
	go func() {
		p.resume.awaitBlocking()
		fn(p)
		p.state = stateDone
		e.alive--
		delete(e.procs, p.id)
		e.procPool = append(e.procPool, p)
		e.yield.pass()
	}()
	return p
}

// newEvent takes an event struct off the free list (or allocates one) and
// stamps it with the next sequence number.
func (e *Env) newEvent(at time.Duration, fn func(), p *Proc) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.proc = p
	e.seq++
	return ev
}

// release recycles an event struct that left the queue (fired or collected
// after cancellation). Bumping gen first invalidates every outstanding
// Timer handle to it. Recycling never reorders equal-time events: order is
// decided by (at, seq) alone and seq still increases monotonically across
// recycled structs.
func (e *Env) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.proc = nil
	ev.next = nil
	ev.tail = nil
	ev.cancelled = false
	e.free = append(e.free, ev)
}

// noteCancelled is called by Timer.Stop. Cancelled events normally leave
// the queue lazily — discarded when they surface at the heap top, at a
// wheel flush, or at batch delivery, each of which decrements ncancel so
// lazily-drained cancels never count toward the next trigger. When they
// pile up past a quarter of everything buried we compact eagerly so a
// cancellation-heavy workload (retry timers, timeouts that rarely fire)
// cannot bloat the queue.
func (e *Env) noteCancelled() {
	e.ncancel++
	if e.ncancel >= 64 && e.ncancel*4 >= e.nqueued {
		e.compactEvents()
	}
}

// compactEvents filters cancelled events out of the heap, the wheel, and
// the in-flight batch in one sweep and restores the heap property. Pop
// order of the survivors is unchanged (see eventQueue.heapify; wheel slots
// are unordered by construction). ncancel is decremented per event
// actually collected rather than zeroed, so the counter stays exact even
// while cancelled events sit in places a sweep cannot reach.
func (e *Env) compactEvents() {
	e.compactions++
	kept := e.events[:0]
	for _, ev := range e.events {
		if ev = e.compactNode(ev); ev != nil {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = kept
	e.events.heapify()
	w := &e.wheel
	for l := 1; l < wheelLevels; l++ {
		occ := w.occ[l]
		for occ != 0 {
			i := bits.TrailingZeros64(occ)
			occ &= occ - 1
			list := w.slot[l][i]
			keptSlot := list[:0]
			for _, ev := range list {
				if ev = e.compactNode(ev); ev != nil {
					keptSlot = append(keptSlot, ev)
				} else {
					w.count--
				}
			}
			for k := len(keptSlot); k < len(list); k++ {
				list[k] = nil
			}
			w.slot[l][i] = keptSlot
			if len(keptSlot) == 0 {
				w.occ[l] &^= 1 << uint(i)
			}
		}
	}
	if e.batch != nil {
		e.batch = e.compactNode(e.batch)
	}
}

// compactNode drops cancelled events from a chain node (releasing them and
// updating the cancellation accounting) and returns the surviving head, or
// nil when nothing survives. When the head itself was cancelled the first
// live member is promoted: its seq is larger than the old head's but still
// smaller than any other node's same-timestamp events, so pop order is
// unaffected.
func (e *Env) compactNode(head *event) *event {
	if !head.cancelled && head.next == nil {
		return head
	}
	var first, last *event
	for ev := head; ev != nil; {
		nx := ev.next
		ev.next = nil
		if ev.cancelled {
			e.ncancel--
			e.nqueued--
			e.release(ev)
		} else {
			if first == nil {
				first = ev
			} else {
				last.next = ev
			}
			last = ev
		}
		ev = nx
	}
	if first == nil {
		return nil
	}
	first.tail = nil
	if first.next != nil {
		first.tail = last
	}
	return first
}

// At schedules fn to run in scheduler context at absolute virtual time t
// (clamped to now). The callback must not block on simulation primitives; it
// may wake processes, complete futures, and schedule further events.
func (e *Env) At(t time.Duration, fn func()) Timer {
	if t < e.now {
		t = e.now
	}
	ev := e.newEvent(t, fn, nil)
	e.schedule(ev)
	return Timer{env: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run in scheduler context d from now. See At.
func (e *Env) After(d time.Duration, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// afterWake schedules a bare wake-up of p d from now — the allocation-free
// core of Sleep (no closure, no Timer handle).
func (e *Env) afterWake(d time.Duration, p *Proc) {
	e.schedule(e.newEvent(e.now+d, nil, p))
}

// schedule files a fresh event into the queue. Three destinations, one
// contract — events fire in (at, seq) order:
//
//   - A run of consecutive arms for the same timestamp (a fan-out storm
//     scheduling n completions at one instant) chains onto the first arm's
//     event in O(1): one heap/wheel node for the whole storm, and batched
//     O(1)-per-event delivery when it fires. Chaining is sound because the
//     run is contiguous in seq: any other node's same-timestamp events are
//     entirely before the head or entirely after the last member.
//   - Events due within wheelNearSpan go to the 4-ary heap, which is the
//     only structure that orders firing.
//   - Far-future events go to the timer wheel and are promoted into the
//     heap before their timestamp can fire.
func (e *Env) schedule(ev *event) {
	e.nqueued++
	if m := e.memo; m != nil && m.gen == e.memoGen && m.at == ev.at {
		if m.tail != nil {
			m.tail.next = ev
		} else {
			m.next = ev
		}
		m.tail = ev
		return
	}
	e.memo = ev
	e.memoGen = ev.gen
	if d := ev.at - e.now; d < wheelNearSpan || e.wheelOff {
		e.events.push(ev)
	} else {
		e.wheel.insert(ev, e.now)
	}
}

// nearPush moves a promoted wheel node into the heap.
func (e *Env) nearPush(ev *event) { e.events.push(ev) }

// Run drives the simulation until no process is runnable and no event is
// pending, and returns the final virtual time. Processes still alive at that
// point are blocked forever; Alive reports how many.
func (e *Env) Run() time.Duration {
	for e.step(-1) {
	}
	return e.now
}

// RunUntil drives the simulation until virtual time would pass t or the
// simulation completes, whichever comes first. Events at exactly t still
// fire. It returns the final virtual time.
func (e *Env) RunUntil(t time.Duration) time.Duration {
	for e.step(t) {
	}
	return e.now
}

// RunFor drives the simulation for d of virtual time from now. See RunUntil.
func (e *Env) RunFor(d time.Duration) time.Duration {
	return e.RunUntil(e.now + d)
}

// step executes one scheduling decision: run the next ready process to its
// next blocking point, or fire the next event. horizon < 0 means no limit.
// It returns false when there is nothing left to do within the horizon.
//
// Dispatch order is exactly the pre-wheel kernel's: ready processes first,
// then events in strict (at, seq) order, one deliverable per step (so a
// woken process runs before the next same-timestamp event, as before).
// The batch and the wheel only change how the next deliverable is found —
// an in-flight same-timestamp chain is drained without heap traffic, and
// wheel slots are promoted into the heap before their window can fire.
// A process woken from Signal.Wait has its predicate evaluated here, at
// its turn, and only resumes when the predicate holds.
func (e *Env) step(horizon time.Duration) bool {
	if p, ok := e.ready.pop(); ok {
		e.cur = p
		if p.cond != nil {
			if !p.cond() {
				// Still waiting: back onto the signal, as the process's
				// own re-Wait would have put it, with no goroutine switch.
				p.state = stateParked
				p.sig.waiters = append(p.sig.waiters, p)
				e.cur = nil
				return true
			}
			p.cond, p.sig = nil, nil
		}
		p.state = stateRunning
		p.resume.pass()
		e.yield.await()
		e.cur = nil
		return true
	}
	for e.batch != nil {
		ev := e.batch
		e.batch = ev.next
		e.nqueued--
		if ev.cancelled {
			e.ncancel--
			e.release(ev)
			continue
		}
		fn, p := ev.fn, ev.proc
		e.release(ev)
		if p != nil {
			p.wake()
		} else {
			fn()
		}
		return true
	}
	for {
		if e.wheel.count > 0 {
			if horizon >= 0 && len(e.events) == 0 && e.wheel.next > horizon {
				e.now = horizon
				return false
			}
			e.syncWheel()
		}
		if len(e.events) == 0 {
			return false
		}
		ev := e.events[0]
		if ev.cancelled {
			e.events.popMin()
			e.ncancel--
			e.nqueued--
			chain, tl := ev.next, ev.tail
			e.release(ev)
			for chain != nil && chain.cancelled {
				nx := chain.next
				e.ncancel--
				e.nqueued--
				e.release(chain)
				chain = nx
			}
			if chain != nil {
				// A cancelled head still anchored live same-timestamp
				// members: the first live one becomes the node. It is the
				// global minimum (same at, and every other node's events
				// sort entirely before the old head or after the chain),
				// so the next loop iteration pops it with the usual
				// horizon check.
				chain.tail = nil
				if chain.next != nil {
					chain.tail = tl
				}
				e.events.push(chain)
			}
			continue
		}
		if horizon >= 0 && ev.at > horizon {
			e.now = horizon
			return false
		}
		e.events.popMin()
		e.now = ev.at
		e.batch = ev.next
		fn, p := ev.fn, ev.proc
		e.nqueued--
		e.release(ev)
		if p != nil {
			p.wake()
		} else {
			fn()
		}
		return true
	}
}

// enqueue marks p ready and appends it to the run queue. The caller must
// hold the scheduling baton (i.e. be the running process or an event
// callback).
func (e *Env) enqueue(p *Proc) {
	p.state = stateReady
	e.ready.push(p)
}

// procRing is the run queue: a head-indexed growable ring buffer with
// power-of-two capacity. Dequeue is O(1) where a head-shifted slice
// (copy(s, s[1:])) is O(n) per scheduling step.
type procRing struct {
	buf  []*Proc
	head int
	n    int
}

func (r *procRing) push(p *Proc) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *procRing) pop() (*Proc, bool) {
	if r.n == 0 {
		return nil, false
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p, true
}

func (r *procRing) grow() {
	newCap := 16
	if len(r.buf) > 0 {
		newCap = len(r.buf) * 2
	}
	buf := make([]*Proc, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
