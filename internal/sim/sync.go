package sim

// Semaphore is a counting semaphore with FIFO fairness: waiters acquire in
// arrival order, so a large request cannot be starved by a stream of small
// ones. It models bounded resources such as the condor schedd's serialized
// shadow spawns.
type Semaphore struct {
	env   *Env
	avail int
	cap   int
	q     []*semWaiter
}

type semWaiter struct {
	p *Proc
	n int
}

// NewSemaphore returns a semaphore with n permits available.
func NewSemaphore(env *Env, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{env: env, avail: n, cap: n}
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Cap returns the total number of permits the semaphore was created with.
func (s *Semaphore) Cap() int { return s.cap }

// Waiting returns the number of processes blocked in Acquire.
func (s *Semaphore) Waiting() int { return len(s.q) }

// Acquire blocks the calling process until n permits are available and takes
// them.
func (s *Semaphore) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if len(s.q) == 0 && s.avail >= n {
		s.avail -= n
		return
	}
	s.q = append(s.q, &semWaiter{p: p, n: n})
	p.park()
}

// TryAcquire takes n permits if they are immediately available (and no
// earlier waiter is queued) and reports whether it succeeded.
func (s *Semaphore) TryAcquire(n int) bool {
	if len(s.q) == 0 && s.avail >= n {
		s.avail -= n
		return true
	}
	return false
}

// Release returns n permits and wakes as many queued waiters as now fit, in
// FIFO order.
func (s *Semaphore) Release(n int) {
	if n <= 0 {
		return
	}
	s.avail += n
	for len(s.q) > 0 && s.q[0].n <= s.avail {
		w := s.q[0]
		s.q = s.q[1:]
		s.avail -= w.n
		w.p.wake()
	}
}

// WaitGroup mirrors sync.WaitGroup for simulation processes.
type WaitGroup struct {
	env     *Env
	count   int
	waiters []*Proc
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup(env *Env) *WaitGroup {
	return &WaitGroup{env: env}
}

// Add adds delta to the counter. Driving the counter negative panics.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		for _, p := range wg.waiters {
			p.wake()
		}
		wg.waiters = nil
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks the calling process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.park()
}

// Gate is a single-waiter, reusable rendezvous: one process Waits, another
// party (a process or an event callback) Opens it, releasing the waiter.
// It is the allocation-free core of Future for the common case of exactly
// one waiter and no value — unlike Future it keeps no waiter list, is not
// write-once, and can be embedded by value and reused across cycles, which
// is what lets a pooled object park its owner without allocating.
type Gate struct {
	p *Proc
}

// Wait parks the calling process until Open. A Gate holds at most one
// waiter; a second Wait before Open is a modelling bug and panics.
func (g *Gate) Wait(p *Proc) {
	if g.p != nil {
		panic("sim: Gate already has a waiter")
	}
	g.p = p
	p.park()
}

// Open releases the waiting process. Opening a Gate nobody waits on is a
// modelling bug and panics.
func (g *Gate) Open() {
	p := g.p
	if p == nil {
		panic("sim: Open of a Gate with no waiter")
	}
	g.p = nil
	p.wake()
}

// Waiting reports whether a process is parked on the gate.
func (g *Gate) Waiting() bool { return g.p != nil }

// Signal is a broadcast-only condition variable: processes Wait on it for a
// predicate and every Broadcast lets all current waiters re-examine theirs.
// It backs watch/notify patterns (informers, reconcile loops, an activator's
// queue of requests waiting for a free replica slot).
type Signal struct {
	env     *Env
	waiters []*Proc
	spare   []*Proc // the previous waiter list's backing array, reused
}

// NewSignal returns a signal bound to env.
func NewSignal(env *Env) *Signal {
	return &Signal{env: env}
}

// Wait parks the calling process until a Broadcast after which cond holds.
// It always parks first — cond is not evaluated on entry, so a caller that
// must not block when the predicate already holds checks it before calling.
//
// After each Broadcast the scheduler evaluates cond at the waiter's
// run-queue turn, which is exactly where the woken process would have
// resumed, with CurrentProc() reporting p. A true result resumes the
// process; a false one re-appends it to the signal's waiters, where a
// process looping `for !cond() { Wait }` on its own goroutine would have
// put itself, without a goroutine switch. The schedule is therefore that of
// the loop, byte for byte, while a waiter whose predicate keeps failing
// costs one function call per Broadcast.
//
// cond runs in scheduler context and must not block: no Sleep, no Wait, no
// channel or semaphore operation that may park. It may read the clock and
// mutate model state — whatever it claims when it returns true is claimed
// atomically with the resume.
func (s *Signal) Wait(p *Proc, cond func() bool) {
	p.cond, p.sig = cond, s
	s.waiters = append(s.waiters, p)
	p.park()
}

// Broadcast wakes every process currently blocked in Wait; each resumes at
// its turn only if its predicate then holds.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = s.spare[:0]
	for _, p := range ws {
		p.wake()
	}
	clear(ws)
	s.spare = ws
}

// Waiting returns the number of blocked waiters.
func (s *Signal) Waiting() int { return len(s.waiters) }
