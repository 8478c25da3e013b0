package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// A waitScript is a random workload over one or two signals and a few
// shared counters: waiter processes that block for predicates over the
// counters (claiming what they wait for), casters that bump counters and
// broadcast from processes — some of them waiting themselves right after,
// before the waiters they woke get their turn — and event callbacks that do
// the same from scheduler context. Start and event times are drawn from a
// few milliseconds so broadcasts, wake-ups, and arrivals collide.
type waitScript struct {
	signals, counters int
	waiters           []scriptWaiter
	casters           []scriptCast
	events            []scriptCast
}

type scriptWaiter struct {
	start  time.Duration
	rounds []scriptRound
}

// scriptRound waits for counter >= need, takes take from it, then adds one
// to bump (when >= 0), optionally broadcasts on cast, and sleeps.
type scriptRound struct {
	sig, counter, need, take, bump, cast int
	sleep                                time.Duration
}

// scriptCast adds add to counter and broadcasts on sig; a process caster
// with a wait then itself waits for counter >= need on sig.
type scriptCast struct {
	at                     time.Duration
	sig, counter, add      int
	wait                   bool
	need                   int
	again                  time.Duration // > 0: broadcast once more after this
	againCounter, againAdd int
}

func randomScript(rng *rand.Rand) waitScript {
	ms := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * time.Millisecond }
	s := waitScript{signals: 1 + rng.Intn(2), counters: 1 + rng.Intn(3)}
	round := func() scriptRound {
		r := scriptRound{
			sig:     rng.Intn(s.signals),
			counter: rng.Intn(s.counters),
			need:    rng.Intn(4),
			bump:    rng.Intn(s.counters+1) - 1,
			cast:    rng.Intn(s.signals+1) - 1,
			sleep:   ms(3),
		}
		r.take = rng.Intn(r.need + 1)
		return r
	}
	for i, n := 0, 2+rng.Intn(8); i < n; i++ {
		w := scriptWaiter{start: ms(4)}
		for j, m := 0, 1+rng.Intn(4); j < m; j++ {
			w.rounds = append(w.rounds, round())
		}
		s.waiters = append(s.waiters, w)
	}
	cast := func() scriptCast {
		c := scriptCast{at: ms(6), sig: rng.Intn(s.signals), counter: rng.Intn(s.counters), add: rng.Intn(3)}
		if rng.Intn(3) == 0 {
			c.again, c.againCounter, c.againAdd = 1+ms(3), rng.Intn(s.counters), 1+rng.Intn(2)
		}
		return c
	}
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		c := cast()
		c.wait = rng.Intn(2) == 0
		c.need = rng.Intn(3)
		s.casters = append(s.casters, c)
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		s.events = append(s.events, cast())
	}
	return s
}

// run plays the script and returns its (time, process, action) log and the
// number of processes left blocked. With loop set, every wait is written as
// the caller-side loop `for !cond() { Wait(p, always) }`; otherwise as the
// predicate wait `if !cond() { Wait(p, cond) }`. Predicates log every
// evaluation under the process CurrentProc reports.
func (s waitScript) run(loop bool) ([]string, int) {
	env := NewEnv(1)
	sigs := make([]*Signal, s.signals)
	for i := range sigs {
		sigs[i] = NewSignal(env)
	}
	c := make([]int, s.counters)
	var log []string
	logf := func(who, format string, args ...any) {
		log = append(log, fmt.Sprintf("%v %s %s", env.Now(), who, fmt.Sprintf(format, args...)))
	}
	always := func() bool { return true }
	wait := func(p *Proc, sig *Signal, counter, need, take int) {
		cond := func() bool {
			logf(env.CurrentProc().Name(), "eval c%d=%d need %d", counter, c[counter], need)
			if c[counter] < need {
				return false
			}
			c[counter] -= take
			return true
		}
		if loop {
			for !cond() {
				sig.Wait(p, always)
			}
		} else if !cond() {
			sig.Wait(p, cond)
		}
	}
	broadcast := func(who string, sig, counter, add int) {
		c[counter] += add
		logf(who, "cast s%d c%d+=%d", sig, counter, add)
		sigs[sig].Broadcast()
	}
	for i, w := range s.waiters {
		name := fmt.Sprintf("w%d", i)
		env.Go(name, func(p *Proc) {
			p.Sleep(w.start)
			for j, r := range w.rounds {
				wait(p, sigs[r.sig], r.counter, r.need, r.take)
				logf(name, "resume round %d", j)
				if r.bump >= 0 {
					c[r.bump]++
				}
				if r.cast >= 0 {
					broadcast(name, r.cast, r.counter, 0)
				}
				p.Sleep(r.sleep)
			}
		})
	}
	for i, k := range s.casters {
		name := fmt.Sprintf("c%d", i)
		env.Go(name, func(p *Proc) {
			p.Sleep(k.at)
			broadcast(name, k.sig, k.counter, k.add)
			if k.wait {
				wait(p, sigs[k.sig], k.counter, k.need, 0)
				logf(name, "resume")
			}
			if k.again > 0 {
				p.Sleep(k.again)
				broadcast(name, k.sig, k.againCounter, k.againAdd)
			}
		})
	}
	for i, k := range s.events {
		name := fmt.Sprintf("e%d", i)
		env.At(k.at, func() {
			broadcast(name, k.sig, k.counter, k.add)
			if k.again > 0 {
				env.After(k.again, func() { broadcast(name, k.sig, k.againCounter, k.againAdd) })
			}
		})
	}
	env.Run()
	logf("end", "alive %d counters %v", env.Alive(), c)
	return log, env.Alive()
}

// TestSignalPredicateWaitMatchesLoop is the kernel's differential oracle for
// predicate waits: over random scripts, evaluating the predicate in the
// scheduler at the waiter's turn must produce the same schedule — every
// evaluation, resume, and broadcast at the same time by the same process —
// and leave the same processes blocked as a caller looping on a plain wake.
func TestSignalPredicateWaitMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	blocked, resumed := 0, 0
	for i := 0; i < 500; i++ {
		s := randomScript(rng)
		want, wantAlive := s.run(true)
		got, gotAlive := s.run(false)
		if gotAlive != wantAlive {
			t.Fatalf("script %d: %d processes left blocked, loop leaves %d", i, gotAlive, wantAlive)
		}
		for j := 0; j < len(want) || j < len(got); j++ {
			if j >= len(want) || j >= len(got) || got[j] != want[j] {
				t.Fatalf("script %d diverges at log line %d:\n got %q\nwant %q", i, j, at(got, j), at(want, j))
			}
		}
		blocked += wantAlive
		for _, line := range want {
			if strings.Contains(line, " resume") {
				resumed++
			}
		}
	}
	if blocked == 0 || resumed == 0 {
		t.Errorf("scripts too tame: %d blocked, %d resumed in total", blocked, resumed)
	}
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end of log>"
}

// TestSignalPredicateRunsAsWaiter checks the predicate's execution context:
// the scheduler evaluates it with CurrentProc reporting the waiter, and a
// false result re-parks the waiter without running any of its body.
func TestSignalPredicateRunsAsWaiter(t *testing.T) {
	env := NewEnv(1)
	sig := NewSignal(env)
	open := false
	evals, bodyRuns := 0, 0
	var waiter *Proc
	waiter = env.Go("waiter", func(p *Proc) {
		sig.Wait(p, func() bool {
			evals++
			if cur := env.CurrentProc(); cur != waiter {
				t.Errorf("predicate evaluated as %v, want %v", cur, waiter)
			}
			return open
		})
		bodyRuns++
	})
	env.Go("caster", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Second)
			sig.Broadcast()
			p.Sleep(time.Second)
			if evals != i || bodyRuns != 0 || sig.Waiting() != 1 {
				t.Errorf("after false broadcast %d: evals %d, body runs %d, waiting %d; want %d, 0, 1",
					i, evals, bodyRuns, sig.Waiting(), i)
			}
		}
		open = true
		sig.Broadcast()
	})
	env.Run()
	if evals != 4 || bodyRuns != 1 || env.Alive() != 0 {
		t.Errorf("evals %d, body runs %d, alive %d; want 4, 1, 0", evals, bodyRuns, env.Alive())
	}
}
