package sim

// Gate tests live alongside the other primitive tests; Gate is the
// allocation-free single-waiter rendezvous backing pooled objects such as
// fluid's job structs.

import (
	"testing"
	"time"
)

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	env := NewEnv(1)
	sem := NewSemaphore(env, 2)
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		env.Go("worker", func(p *Proc) {
			sem.Acquire(p, 1)
			active++
			if active > peak {
				peak = active
			}
			p.Sleep(time.Second)
			active--
			sem.Release(1)
		})
	}
	end := env.Run()
	if peak != 2 {
		t.Errorf("peak concurrency = %d, want 2", peak)
	}
	if end != 3*time.Second {
		t.Errorf("6 one-second jobs through 2 permits finished at %v, want 3s", end)
	}
}

func TestSemaphoreFIFONoStarvation(t *testing.T) {
	env := NewEnv(1)
	sem := NewSemaphore(env, 2)
	var order []int
	env.Go("hog", func(p *Proc) {
		sem.Acquire(p, 2)
		p.Sleep(time.Second)
		sem.Release(2)
	})
	env.Go("big", func(p *Proc) {
		p.Sleep(time.Millisecond)
		sem.Acquire(p, 2) // queued first
		order = append(order, 2)
		sem.Release(2)
	})
	env.Go("small", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		sem.Acquire(p, 1) // arrives later; must not jump the big request
		order = append(order, 1)
		sem.Release(1)
	})
	env.Run()
	if len(order) != 2 || order[0] != 2 {
		t.Errorf("acquisition order = %v, want [2 1]", order)
	}
}

func TestSemaphoreTryAcquireRespectsQueue(t *testing.T) {
	env := NewEnv(1)
	sem := NewSemaphore(env, 1)
	env.Go("holder", func(p *Proc) {
		sem.Acquire(p, 1)
		p.Sleep(time.Second)
		sem.Release(1)
	})
	env.Go("waiter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		sem.Acquire(p, 1)
		sem.Release(1)
	})
	env.Go("opportunist", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		if sem.TryAcquire(1) {
			t.Error("TryAcquire succeeded while a waiter was queued")
		}
	})
	env.Run()
	if sem.Available() != 1 {
		t.Errorf("Available = %d, want 1", sem.Available())
	}
}

func TestWaitGroup(t *testing.T) {
	env := NewEnv(1)
	wg := NewWaitGroup(env)
	done := 0
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		env.Go("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Second)
			done++
			wg.Done()
		})
	}
	var waitedAt time.Duration
	env.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		waitedAt = p.Now()
	})
	env.Run()
	if done != 3 {
		t.Errorf("done = %d, want 3", done)
	}
	if waitedAt != 3*time.Second {
		t.Errorf("Wait returned at %v, want 3s", waitedAt)
	}
}

func TestWaitGroupZeroWaitReturnsImmediately(t *testing.T) {
	env := NewEnv(1)
	wg := NewWaitGroup(env)
	ran := false
	env.Go("p", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	env.Run()
	if !ran {
		t.Error("Wait on zero counter blocked")
	}
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv(1)
	sig := NewSignal(env)
	open := false
	woken := 0
	for i := 0; i < 4; i++ {
		env.Go("waiter", func(p *Proc) {
			sig.Wait(p, func() bool { return open })
			woken++
		})
	}
	env.Go("caster", func(p *Proc) {
		p.Sleep(time.Second)
		if sig.Waiting() != 4 {
			t.Errorf("Waiting = %d, want 4", sig.Waiting())
		}
		sig.Broadcast() // predicate still false: every waiter re-parks
		p.Sleep(time.Second)
		if woken != 0 || sig.Waiting() != 4 {
			t.Errorf("after a false broadcast: woken = %d, Waiting = %d, want 0 and 4", woken, sig.Waiting())
		}
		open = true
		sig.Broadcast()
	})
	env.Run()
	if woken != 4 || sig.Waiting() != 0 || env.Alive() != 0 {
		t.Errorf("woken = %d, Waiting = %d, Alive = %d, want 4, 0, 0", woken, sig.Waiting(), env.Alive())
	}
}

func TestFutureSetBeforeGet(t *testing.T) {
	env := NewEnv(1)
	f := NewFuture[string](env)
	f.Set("ready")
	env.Go("p", func(p *Proc) {
		if v := f.Get(p); v != "ready" {
			t.Errorf("Get = %q", v)
		}
	})
	env.Run()
}

func TestFutureWakesAllWaiters(t *testing.T) {
	env := NewEnv(1)
	f := NewFuture[int](env)
	got := 0
	for i := 0; i < 3; i++ {
		env.Go("waiter", func(p *Proc) {
			got += f.Get(p)
		})
	}
	env.Go("setter", func(p *Proc) {
		p.Sleep(time.Second)
		f.Set(10)
	})
	env.Run()
	if got != 30 {
		t.Errorf("sum = %d, want 30", got)
	}
}

func TestFutureGetTimeout(t *testing.T) {
	env := NewEnv(1)
	f := NewFuture[int](env)
	env.Go("p", func(p *Proc) {
		if _, ok := f.GetTimeout(p, time.Second); ok {
			t.Error("timeout Get reported ok")
		}
		if p.Now() != time.Second {
			t.Errorf("timed out at %v", p.Now())
		}
	})
	env.Run()
	// Late Set must not try to wake the departed waiter.
	f.Set(1)
	env.Go("p2", func(p *Proc) {
		if v, ok := f.GetTimeout(p, time.Second); !ok || v != 1 {
			t.Errorf("resolved GetTimeout = %d %v", v, ok)
		}
	})
	env.Run()
}

func TestFutureDoubleSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("second Set did not panic")
		}
	}()
	env := NewEnv(1)
	f := NewFuture[int](env)
	f.Set(1)
	f.Set(2)
}

func TestGateWaitOpen(t *testing.T) {
	env := NewEnv(1)
	var g Gate
	var opened time.Duration
	env.Go("waiter", func(p *Proc) {
		g.Wait(p)
		opened = p.Now()
	})
	env.Go("opener", func(p *Proc) {
		p.Sleep(time.Second)
		if !g.Waiting() {
			t.Error("Waiting = false with a parked waiter")
		}
		g.Open()
	})
	env.Run()
	if opened != time.Second {
		t.Errorf("waiter released at %v, want 1s", opened)
	}
	if g.Waiting() {
		t.Error("Waiting = true after Open")
	}
}

func TestGateReuse(t *testing.T) {
	env := NewEnv(1)
	var g Gate
	rounds := 0
	env.Go("waiter", func(p *Proc) {
		for i := 0; i < 5; i++ {
			g.Wait(p)
			rounds++
		}
	})
	env.Go("opener", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Second)
			g.Open()
		}
	})
	env.Run()
	if rounds != 5 {
		t.Errorf("waiter released %d times, want 5", rounds)
	}
}

func TestGateOpenWithoutWaiterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Open without waiter did not panic")
		}
	}()
	var g Gate
	g.Open()
}
