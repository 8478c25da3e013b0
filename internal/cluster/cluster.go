// Package cluster assembles the simulated testbed machines: a submit node
// (which also hosts the Kubernetes control plane, as in the paper's §V-A
// setup) and a set of worker nodes, wired together by a simnet fabric, each
// with a processor-sharing CPU and a local disk.
//
// The CPU model is the heart of the performance-isolation story: uncapped
// (native) tasks on the same node contend for cores, while tasks run with a
// cgroup-style cap (containers) receive predictable throughput.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/storage"
)

// SubmitNodeName is the conventional name of the submit/control-plane node.
const SubmitNodeName = "submit"

// RegistryNodeName is the network name of the off-cluster image registry.
const RegistryNodeName = "registry"

// Node is one machine of the testbed.
type Node struct {
	Name string
	// Index is the node's dense position in Cluster.AllNodes (the submit
	// node is 0, workerN is N), assigned once by New. Substrates that keep
	// per-node state index slices by it instead of hashing the name.
	Index   int
	Cores   int
	MemMB   int
	CPU     *fluid.Server
	Disk    *storage.Disk
	Scratch *storage.Scratch

	memUsedMB int
	tasksRun  int
}

// Exec runs work core-seconds on the node's CPU. capCores > 0 applies a
// cgroup-style rate cap (limit only); 0 runs uncapped and contends freely
// with other work (native execution).
func (n *Node) Exec(p *sim.Proc, work float64, capCores float64) {
	n.ExecReserved(p, work, capCores, 0)
}

// ExecReserved runs work core-seconds with both a cap and a guaranteed
// floor — the full cgroup semantics containers get: the floor shields the
// task from noisy neighbours (performance isolation), while the cap bounds
// it. Floors scale down proportionally if the node is over-reserved.
func (n *Node) ExecReserved(p *sim.Proc, work, capCores, floorCores float64) {
	n.tasksRun++
	n.CPU.RunReserved(p, work, capCores, floorCores)
}

// TasksRun returns how many Exec calls the node has served.
func (n *Node) TasksRun() int { return n.tasksRun }

// ReserveMem claims MB of memory; it returns an error when the node is out
// of memory (admission failure, mirrors kubelet rejection).
func (n *Node) ReserveMem(mb int) error {
	if n.memUsedMB+mb > n.MemMB {
		return fmt.Errorf("cluster: %s: out of memory (%d used + %d requested > %d)", n.Name, n.memUsedMB, mb, n.MemMB)
	}
	n.memUsedMB += mb
	return nil
}

// ReleaseMem returns MB of memory.
func (n *Node) ReleaseMem(mb int) {
	n.memUsedMB -= mb
	if n.memUsedMB < 0 {
		panic("cluster: memory released twice")
	}
}

// MemUsedMB returns the currently reserved memory.
func (n *Node) MemUsedMB() int { return n.memUsedMB }

// Cluster is the full simulated testbed.
type Cluster struct {
	Env     *sim.Env
	Net     *simnet.Network
	Submit  *Node
	Workers []*Node
	Params  config.Params

	byName map[string]*Node
	// TasksExecuted counts application tasks across the cluster, feeding
	// the Fig. 1 drift term.
	TasksExecuted int
}

// New builds the testbed described by p: one submit node plus
// p.WorkerNodes workers, a network with per-node egress bandwidths, and an
// off-cluster registry network endpoint.
func New(env *sim.Env, p config.Params) *Cluster {
	net := simnet.New(env, p.NetLatency)
	c := &Cluster{Env: env, Net: net, Params: p, byName: make(map[string]*Node)}

	mkNode := func(name string, egress float64) *Node {
		net.AddNode(name, egress)
		disk := storage.NewDisk(env, name, 500e6) // 500 MB/s local SSD
		n := &Node{
			Name:    name,
			Index:   len(c.byName),
			Cores:   p.CoresPerNode,
			MemMB:   p.MemMBPerNode,
			CPU:     fluid.New(env, "cpu:"+name, float64(p.CoresPerNode)),
			Disk:    disk,
			Scratch: storage.NewScratch(name, disk),
		}
		c.byName[name] = n
		return n
	}

	c.Submit = mkNode(SubmitNodeName, p.SubmitUplinkBps)
	for i := 0; i < p.WorkerNodes; i++ {
		c.Workers = append(c.Workers, mkNode(fmt.Sprintf("worker%d", i+1), p.WorkerLinkBps))
	}
	// The registry lives outside the cluster with ample egress.
	net.AddNode(RegistryNodeName, p.RegistryBps)
	return c
}

// Node looks up a node by name.
func (c *Cluster) Node(name string) (*Node, bool) {
	n, ok := c.byName[name]
	return n, ok
}

// MustNode looks up a node by name and panics if absent.
func (c *Cluster) MustNode(name string) *Node {
	n, ok := c.byName[name]
	if !ok {
		panic(fmt.Sprintf("cluster: unknown node %q", name))
	}
	return n
}

// AllNodes returns the submit node followed by the workers.
func (c *Cluster) AllNodes() []*Node {
	return append([]*Node{c.Submit}, c.Workers...)
}

// NextTaskWork returns the service demand of the next application task:
// the calibrated base demand, the cluster-wide drift term (Fig. 1's mild
// per-task slowdown), and multiplicative run-to-run noise.
func (c *Cluster) NextTaskWork() float64 {
	w := c.Params.TaskWork(c.TasksExecuted)
	c.TasksExecuted++
	if f := c.Params.TaskJitterFrac; f > 0 {
		w *= c.Env.Rand().Uniform(1-f, 1+f)
	}
	return w
}

// Latency returns the network's one-way latency, for components that model
// small control round trips.
func (c *Cluster) Latency() time.Duration { return c.Net.Latency() }
