package sim

import (
	"testing"
	"time"
)

// TestStressManyProcessesDeterministic runs a few hundred processes
// hammering every primitive and checks the schedule is reproducible and
// the simulation drains completely.
func TestStressManyProcessesDeterministic(t *testing.T) {
	run := func(seed uint64) (fingerprint uint64, end time.Duration, alive int) {
		env := NewEnv(seed)
		ch := NewChan[int](env, 4)
		sem := NewSemaphore(env, 3)
		sig := NewSignal(env)
		wg := NewWaitGroup(env)
		var fp uint64

		const producers, consumers, sleepers = 50, 50, 100
		for i := 0; i < producers; i++ {
			i := i
			wg.Add(1)
			env.Go("producer", func(p *Proc) {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					p.Sleep(time.Duration(p.Rand().Intn(50)) * time.Millisecond)
					ch.Send(p, i*1000+j)
				}
			})
		}
		for i := 0; i < consumers; i++ {
			wg.Add(1)
			env.Go("consumer", func(p *Proc) {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					v, ok := ch.Recv(p)
					if !ok {
						return
					}
					sem.Acquire(p, 1)
					p.Sleep(time.Millisecond)
					sem.Release(1)
					fp = fp*31 + uint64(v) + uint64(p.Now())
				}
			})
		}
		for i := 0; i < sleepers; i++ {
			wg.Add(1)
			env.Go("sleeper", func(p *Proc) {
				defer wg.Done()
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(p.Rand().Intn(1000)) * time.Millisecond)
				}
				sig.Wait(p, func() bool { return true })
			})
		}
		env.Go("broadcaster", func(p *Proc) {
			for sig.Waiting() < sleepers {
				p.Sleep(100 * time.Millisecond)
			}
			sig.Broadcast()
		})
		env.Go("waiter", func(p *Proc) {
			wg.Wait(p)
		})
		endAt := env.Run()
		return fp, endAt, env.Alive()
	}

	fp1, end1, alive1 := run(123)
	fp2, end2, alive2 := run(123)
	if alive1 != 0 || alive2 != 0 {
		t.Fatalf("alive = %d/%d, want 0 (blocked processes)", alive1, alive2)
	}
	if fp1 != fp2 || end1 != end2 {
		t.Errorf("stress runs diverged: fp %d vs %d, end %v vs %v", fp1, fp2, end1, end2)
	}
	fp3, _, _ := run(124)
	if fp3 == fp1 {
		t.Log("different seeds produced identical fingerprints (possible but unlikely)")
	}
}

// TestStressEventHeapOrdering floods the event queue and checks time never
// runs backwards.
func TestStressEventHeapOrdering(t *testing.T) {
	env := NewEnv(9)
	last := time.Duration(-1)
	rng := NewRNG(9)
	for i := 0; i < 5000; i++ {
		at := time.Duration(rng.Intn(1_000_000)) * time.Microsecond
		env.At(at, func() {
			if env.Now() < last {
				t.Fatalf("time ran backwards: %v after %v", env.Now(), last)
			}
			last = env.Now()
		})
	}
	env.Run()
	if last < 0 {
		t.Fatal("no events fired")
	}
}

// TestStressTimerCancellationStorm arms and cancels many timers and checks
// exactly the surviving ones fire.
func TestStressTimerCancellationStorm(t *testing.T) {
	env := NewEnv(10)
	rng := NewRNG(10)
	fired := 0
	wantFired := 0
	for i := 0; i < 2000; i++ {
		tm := env.After(time.Duration(1+rng.Intn(1000))*time.Millisecond, func() { fired++ })
		if rng.Float64() < 0.5 {
			tm.Stop()
		} else {
			wantFired++
		}
	}
	env.Run()
	if fired != wantFired {
		t.Errorf("fired = %d, want %d", fired, wantFired)
	}
}

// TestStressMixedPrimitiveChurn exercises the recycled-event heap, the
// run-queue ring, and the proc pool together: processes spawn child
// processes mid-flight, timers are armed and half of them cancelled before
// firing, and every primitive is churned concurrently. The schedule must be
// reproducible and the simulation must drain.
func TestStressMixedPrimitiveChurn(t *testing.T) {
	run := func(seed uint64) (fingerprint uint64, end time.Duration) {
		env := NewEnv(seed)
		wg := NewWaitGroup(env)
		ch := NewChan[int](env, 2)
		var fp uint64
		mix := func(p *Proc, depth, i int) {
			// Arm a timer; cancel half mid-flight after a short sleep.
			hits := 0
			tm := p.Env().After(time.Duration(1+p.Rand().Intn(40))*time.Millisecond, func() { hits++ })
			p.Sleep(time.Duration(p.Rand().Intn(20)) * time.Millisecond)
			stopped := tm.Stop()
			fp = fp*31 + uint64(hits) + uint64(p.Now())
			if stopped {
				fp++
			}
			_ = i
		}
		var spawn func(p *Proc, depth int)
		spawn = func(p *Proc, depth int) {
			mix(p, depth, 0)
			if depth < 3 {
				// Processes spawning processes: the proc pool recycles
				// finished structs while their parents still run.
				n := 1 + p.Rand().Intn(2)
				for i := 0; i < n; i++ {
					wg.Add(1)
					p.Env().Go("child", func(c *Proc) {
						defer wg.Done()
						spawn(c, depth+1)
					})
				}
			}
			ch.Send(p, depth)
		}
		for i := 0; i < 32; i++ {
			wg.Add(1)
			env.Go("root", func(p *Proc) {
				defer wg.Done()
				spawn(p, 0)
			})
		}
		env.Go("drain", func(p *Proc) {
			for {
				v, ok := ch.Recv(p)
				if !ok {
					return
				}
				fp = fp*131 + uint64(v)
			}
		})
		env.Go("closer", func(p *Proc) {
			wg.Wait(p)
			ch.Close()
		})
		end = env.Run()
		if env.Alive() != 0 {
			t.Fatalf("alive = %d after churn, want 0", env.Alive())
		}
		return fp, end
	}
	fp1, end1 := run(42)
	fp2, end2 := run(42)
	if fp1 != fp2 || end1 != end2 {
		t.Errorf("churn runs diverged: fp %d vs %d, end %v vs %v", fp1, fp2, end1, end2)
	}
}
