package simnet

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func newNet(env *sim.Env) *Network {
	n := New(env, time.Millisecond)
	n.AddNode("submit", 100) // 100 B/s for easy arithmetic
	n.AddNode("w1", 100)
	n.AddNode("w2", 50)
	return n
}

func TestTransferTime(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, "submit", "w1", 200) // 200 B at 100 B/s + 1ms latency
		want := 2*time.Second + time.Millisecond
		if p.Now() != want {
			t.Errorf("transfer took %v, want %v", p.Now(), want)
		}
	})
	env.Run()
}

func TestTransferSharesEgress(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		env.Go("xfer", func(p *sim.Proc) {
			n.Transfer(p, "submit", "w1", 100)
			done[i] = p.Now()
		})
	}
	env.Run()
	want := 2*time.Second + time.Millisecond // two 100 B transfers share 100 B/s
	for i, d := range done {
		if d != want {
			t.Errorf("transfer %d finished at %v, want %v", i, d, want)
		}
	}
}

func TestTransferCappedByReceiver(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, "submit", "w2", 100) // receiver w2 is 50 B/s
		want := 2*time.Second + time.Millisecond
		if p.Now() != want {
			t.Errorf("transfer took %v, want %v", p.Now(), want)
		}
	})
	env.Run()
}

func TestLoopbackFree(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, "w1", "w1", 1<<30)
		n.Message(p, "w1", "w1")
		if p.Now() != 0 {
			t.Errorf("loopback cost %v", p.Now())
		}
	})
	env.Run()
}

func TestMessageLatencyOnly(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("msg", func(p *sim.Proc) {
		n.Message(p, "w1", "w2")
		if p.Now() != time.Millisecond {
			t.Errorf("message took %v, want 1ms", p.Now())
		}
	})
	env.Run()
}

func TestAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, "submit", "w1", 300)
		n.Transfer(p, "w1", "submit", 50)
	})
	env.Run()
	if n.BytesSent("submit") != 300 || n.BytesReceived("w1") != 300 {
		t.Errorf("submit tx=%d w1 rx=%d", n.BytesSent("submit"), n.BytesReceived("w1"))
	}
	if n.BytesSent("w1") != 50 || n.BytesReceived("submit") != 50 {
		t.Errorf("reverse accounting wrong")
	}
}

func TestZeroByteTransferIsLatencyOnly(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	env.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, "submit", "w1", 0)
		if p.Now() != time.Millisecond {
			t.Errorf("zero-byte transfer took %v", p.Now())
		}
	})
	env.Run()
}

func TestUnknownNodePanics(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	_ = env
	defer func() {
		if recover() == nil {
			t.Error("message to unknown node did not panic")
		}
	}()
	n.Message(nil, "submit", "nope") // panics in mustIface before touching p
}

func TestDuplicateNodePanics(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode did not panic")
		}
	}()
	n.AddNode("w1", 10)
}

// A transfer across a partitioned pair stalls until that pair heals —
// healing another pair does not release it — and then takes its usual
// latency plus transfer time from the heal.
func TestPartitionBlocksTransferUntilHeal(t *testing.T) {
	env := sim.NewEnv(1)
	n := newNet(env)
	n.Partition("w1", "submit")
	n.Partition("submit", "w2")
	if !n.Partitioned("submit", "w1") || !n.Partitioned("w2", "submit") {
		t.Fatal("Partitioned does not report the severed pairs")
	}
	done := time.Duration(-1)
	env.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, "submit", "w1", 200) // 200 B at 100 B/s + 1ms latency
		done = p.Now()
	})
	env.At(time.Second, func() { n.Heal("submit", "w2") })
	env.At(2*time.Second, func() {
		if done >= 0 {
			t.Errorf("transfer finished at %v although its pair is still partitioned", done)
		}
		if n.Partitioned("submit", "w2") || !n.Partitioned("submit", "w1") {
			t.Error("healing submit|w2 changed the wrong pair")
		}
	})
	heal := 3 * time.Second
	env.At(heal, func() { n.Heal("w1", "submit") })
	env.Run()
	if want := heal + time.Millisecond + 2*time.Second; done != want {
		t.Errorf("transfer finished at %v, want %v (heal + latency + 2 s)", done, want)
	}
	if env.Alive() != 0 {
		t.Errorf("%d processes left blocked", env.Alive())
	}
}
