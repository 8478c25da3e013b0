package sim

import (
	"fmt"
	"time"
)

type procState int

const (
	stateReady procState = iota
	stateRunning
	stateParked
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateParked:
		return "parked"
	case stateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Proc is a simulation process: a goroutine scheduled cooperatively by its
// Env. All blocking methods must be called from the process's own function
// body (the fn passed to Env.Go); calling them from outside the simulation
// corrupts scheduling.
type Proc struct {
	env    *Env
	id     int
	name   string
	state  procState
	resume baton
	// cond and sig are set while the process waits in Signal.Wait: the
	// scheduler evaluates cond at the process's run-queue turn and re-parks
	// it on sig while cond is false.
	cond func() bool
	sig  *Signal
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the process's unique id within its environment.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Rand returns the environment's deterministic random source.
func (p *Proc) Rand() *RNG { return p.env.rng }

// Tracef emits a trace record attributed to this process.
func (p *Proc) Tracef(format string, args ...any) {
	p.env.Tracef(p.name, format, args...)
}

// String identifies the process in diagnostics.
func (p *Proc) String() string { return fmt.Sprintf("proc %d (%s)", p.id, p.name) }

// park yields the scheduling baton and blocks until another process or an
// event callback calls wake. When the parking process is provably the
// scheduler's next dispatch — nothing else is runnable and the earliest
// event is its own wake-up — it spins for the baton instead of parking on
// the channel: the resume is nanoseconds away, and the spin turns the
// park/resume round trip into two atomic operations. Any other parked
// process goes straight to sleep and costs no CPU.
func (p *Proc) park() {
	e := p.env
	spin := e.ready.n == 0 && e.batch == nil && len(e.events) > 0 && e.events[0].proc == p &&
		(e.wheel.count == 0 || e.wheel.next > e.events[0].at)
	p.state = stateParked
	e.yield.pass()
	if spin {
		p.resume.await()
	} else {
		p.resume.awaitBlocking()
	}
	p.state = stateRunning
}

// wake moves a parked process back onto the run queue. The caller must hold
// the scheduling baton. Waking a non-parked process is a kernel bug.
func (p *Proc) wake() {
	if p.state != stateParked {
		panic(fmt.Sprintf("sim: wake of %v in state %d", p, p.state))
	}
	p.env.enqueue(p)
}

// Sleep blocks the process for d of virtual time. Non-positive durations
// yield the processor without advancing the clock. Sleeping allocates
// nothing in steady state: the wake-up event is a recycled struct carrying
// the process pointer directly, with no closure and no Timer handle.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.env.afterWake(d, p)
	p.park()
}

// SleepUntil blocks the process until absolute virtual time t (or returns
// immediately if t has passed).
func (p *Proc) SleepUntil(t time.Duration) {
	if t <= p.env.now {
		return
	}
	p.Sleep(t - p.env.now)
}

// Yield places the process at the back of the run queue, letting every other
// currently runnable process execute before it resumes. The clock does not
// advance.
func (p *Proc) Yield() {
	e := p.env
	e.enqueue(p)
	spin := e.ready.n == 1 // alone in the run queue: resumed next
	e.yield.pass()
	if spin {
		p.resume.await()
	} else {
		p.resume.awaitBlocking()
	}
	p.state = stateRunning
}
