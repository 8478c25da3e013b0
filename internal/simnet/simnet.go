// Package simnet models the cluster network: named nodes with
// bandwidth-limited egress interfaces connected by a low-latency fabric.
//
// Transfers contend at the sender's egress interface (a fluid server), which
// is where the reproduction's interesting bottleneck lives: every HTCondor
// file transfer — input matrices, and in container mode the image itself —
// leaves through the submit node's uplink (paper §IV-4, Fig. 2). Receiver
// ingress contention is approximated by capping each transfer's rate at the
// receiver's interface bandwidth.
package simnet

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/fluid"
	"repro/internal/sim"
)

// Network is the cluster fabric. All methods must be called from simulation
// context.
type Network struct {
	env       *sim.Env
	latency   time.Duration
	latFactor float64
	ifaces    map[string]*iface
	parts     map[string]bool
	healed    *sim.Signal
}

type iface struct {
	name   string
	bps    float64 // current egress bandwidth (may be degraded by a fault)
	base   float64 // configured egress bandwidth
	egress *fluid.Server
	tx     int64 // bytes sent, for accounting
	rx     int64 // bytes received
}

// New returns a network with the given one-way message latency between any
// pair of distinct nodes.
func New(env *sim.Env, latency time.Duration) *Network {
	return &Network{
		env:       env,
		latency:   latency,
		latFactor: 1,
		ifaces:    make(map[string]*iface),
		parts:     make(map[string]bool),
		healed:    sim.NewSignal(env),
	}
}

// AddNode registers a node with the given egress bandwidth in bytes/second.
func (n *Network) AddNode(name string, egressBps float64) {
	if _, ok := n.ifaces[name]; ok {
		panic(fmt.Sprintf("simnet: duplicate node %q", name))
	}
	n.ifaces[name] = &iface{
		name:   name,
		bps:    egressBps,
		base:   egressBps,
		egress: fluid.New(n.env, "net:"+name, egressBps),
	}
}

// HasNode reports whether name is registered.
func (n *Network) HasNode(name string) bool {
	_, ok := n.ifaces[name]
	return ok
}

// Latency returns the one-way message latency, including any active
// latency-spike fault.
func (n *Network) Latency() time.Duration {
	return time.Duration(float64(n.latency) * n.latFactor)
}

// SetLatencyFactor scales the fabric's one-way latency by f (1 restores the
// configured value) — the delivery mechanism for latency-spike faults.
func (n *Network) SetLatencyFactor(f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("simnet: latency factor %v must be positive", f))
	}
	n.latFactor = f
}

// SetBandwidthFactor scales a node's egress bandwidth to 1/f of its
// configured value (f=1 restores it) — the delivery mechanism for bandwidth
// brownouts such as a throttled registry. Transfers already in flight are
// re-paced at the new rate.
func (n *Network) SetBandwidthFactor(node string, f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("simnet: bandwidth factor %v must be positive", f))
	}
	iface := n.mustIface(node)
	iface.bps = iface.base / f
	iface.egress.SetCapacity(iface.bps)
}

// partKey canonicalises an unordered node pair.
func partKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Partition severs connectivity between two nodes. Messages and transfers
// between them block until Heal — partitioned traffic stalls rather than
// erroring, matching TCP behaviour within typical fault windows.
func (n *Network) Partition(a, b string) {
	n.mustIface(a)
	n.mustIface(b)
	n.parts[partKey(a, b)] = true
}

// Heal restores connectivity between two nodes and releases traffic blocked
// on the partition.
func (n *Network) Heal(a, b string) {
	delete(n.parts, partKey(a, b))
	n.healed.Broadcast()
}

// Partitioned reports whether traffic between two nodes is currently severed.
func (n *Network) Partitioned(a, b string) bool {
	return n.parts[partKey(a, b)]
}

// waitReachable blocks the calling process while from↔to is partitioned.
func (n *Network) waitReachable(p *sim.Proc, from, to string) {
	key := partKey(from, to)
	if n.parts[key] {
		n.healed.Wait(p, func() bool { return !n.parts[key] })
	}
}

// AttachFaults registers the network's fault hooks: latency spikes
// (KindNetLatency, Rate = multiplier), partitions (KindNetPartition, Target
// = "a|b"), and registry-style bandwidth brownouts (KindRegistryBrownout,
// Target = node, Rate = collapse divisor).
func (n *Network) AttachFaults(in *faults.Injector) {
	in.OnFault(faults.KindNetLatency, func(f faults.Fault, begin bool) {
		if begin {
			n.SetLatencyFactor(f.Rate)
		} else {
			n.SetLatencyFactor(1)
		}
	})
	in.OnFault(faults.KindNetPartition, func(f faults.Fault, begin bool) {
		a, b, ok := strings.Cut(f.Target, "|")
		if !ok {
			panic(fmt.Sprintf("simnet: partition target %q not of form a|b", f.Target))
		}
		if begin {
			n.Partition(a, b)
		} else {
			n.Heal(a, b)
		}
	})
	in.OnFault(faults.KindRegistryBrownout, func(f faults.Fault, begin bool) {
		if begin {
			n.SetBandwidthFactor(f.Target, f.Rate)
		} else {
			n.SetBandwidthFactor(f.Target, 1)
		}
	})
}

// Message charges one small control message from one node to another
// (latency only; bandwidth is negligible). Loopback is free.
func (n *Network) Message(p *sim.Proc, from, to string) {
	if from == to {
		return
	}
	n.mustIface(from)
	n.mustIface(to)
	n.waitReachable(p, from, to)
	p.Sleep(n.Latency())
}

// Transfer moves size bytes from one node to another, blocking the calling
// process for the propagation latency plus the bandwidth-limited transfer
// time. Concurrent transfers out of the same node share its egress
// bandwidth; each transfer is additionally capped at the receiver's
// interface rate. Loopback transfers are free.
func (n *Network) Transfer(p *sim.Proc, from, to string, size int64) {
	if size < 0 {
		panic("simnet: negative transfer size")
	}
	src := n.mustIface(from)
	dst := n.mustIface(to)
	if from == to {
		return
	}
	n.waitReachable(p, from, to)
	p.Sleep(n.Latency())
	if size == 0 {
		return
	}
	rateCap := 0.0
	if dst.bps < src.bps {
		rateCap = dst.bps
	}
	src.egress.Run(p, float64(size), rateCap)
	src.tx += size
	dst.rx += size
}

// BytesSent returns the total bytes a node has sent.
func (n *Network) BytesSent(node string) int64 { return n.mustIface(node).tx }

// BytesReceived returns the total bytes a node has received.
func (n *Network) BytesReceived(node string) int64 { return n.mustIface(node).rx }

// TotalBytesSent returns the bytes sent across every node — total data
// movement on the fabric.
func (n *Network) TotalBytesSent() int64 {
	var total int64
	for _, f := range n.ifaces {
		total += f.tx
	}
	return total
}

// EgressLoad returns the number of in-flight transfers leaving a node.
func (n *Network) EgressLoad(node string) int { return n.mustIface(node).egress.Load() }

func (n *Network) mustIface(name string) *iface {
	f, ok := n.ifaces[name]
	if !ok {
		panic(fmt.Sprintf("simnet: unknown node %q", name))
	}
	return f
}
