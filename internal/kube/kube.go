// Package kube is a minimal Kubernetes control plane: an API object store
// for pods, a least-loaded scheduler, and one kubelet per worker node that
// reconciles bound pods into containers (pull image → create → start →
// readiness). It provides exactly the substrate Knative Serving needs —
// pod lifecycle with observable readiness — including the latency sources
// that make up a serverless cold start.
package kube

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/cplane"
	"repro/internal/crt"
	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Phase is a pod lifecycle phase.
type Phase int

// Pod phases.
const (
	PhasePending Phase = iota
	PhaseScheduled
	PhaseStarting
	PhaseRunning
	PhaseFailed
	PhaseDead
)

func (ph Phase) String() string {
	switch ph {
	case PhasePending:
		return "Pending"
	case PhaseScheduled:
		return "Scheduled"
	case PhaseStarting:
		return "Starting"
	case PhaseRunning:
		return "Running"
	case PhaseFailed:
		return "Failed"
	case PhaseDead:
		return "Dead"
	default:
		return fmt.Sprintf("Phase(%d)", int(ph))
	}
}

// PodSpec describes a pod to create.
type PodSpec struct {
	// Name must be unique among live pods.
	Name string
	// Image is the container image to run.
	Image string
	// CPURequest is the scheduler's resource request in cores.
	CPURequest float64
	// MemMB is the memory request, admission-checked on the node.
	MemMB int
	// CapCores is the cgroup CPU quota applied to the container
	// (0 = uncapped).
	CapCores float64
	// AppInit is the in-container application initialisation time before
	// the pod can pass readiness (e.g. python + flask + numpy import).
	AppInit time.Duration
}

// Pod is a scheduled unit of work.
type Pod struct {
	Spec     PodSpec
	NodeName string

	phase     Phase
	ready     bool
	readyF    *sim.Future[error]
	container *crt.Container
	createdAt time.Duration
	readyAt   time.Duration
	deleted   bool
	accounted bool // counted in per-node requested-resource accounting
}

// CreatedAt returns the virtual time the pod was submitted (CreatePod).
// ReadyAt − CreatedAt is the pod's placement latency: scheduling wait,
// control-plane propagation, and bring-up.
func (pod *Pod) CreatedAt() time.Duration { return pod.createdAt }

// Phase returns the pod's current phase.
func (pod *Pod) Phase() Phase { return pod.phase }

// Ready reports whether the pod is serving.
func (pod *Pod) Ready() bool { return pod.ready }

// ReadyAt returns the virtual time the pod became ready.
func (pod *Pod) ReadyAt() time.Duration { return pod.readyAt }

// Exec runs work core-seconds in the pod's container, blocking the caller.
// It fails if the pod is not running.
func (pod *Pod) Exec(p *sim.Proc, work float64) error {
	if !pod.ready || pod.container == nil {
		return fmt.Errorf("kube: pod %s not ready", pod.Spec.Name)
	}
	return pod.container.Exec(p, work)
}

type podOp struct {
	pod    *Pod
	delete bool
}

// nodeShape is a distinct (cores, memMB) worker configuration. fitsEver
// scans shapes instead of nodes: clusters have a handful of machine types,
// so the "could this ever fit" check is O(shapes), not O(nodes).
type nodeShape struct {
	cores int
	memMB int
}

// nodeSlot is the control plane's state for one node — kube-scheduler's
// NodeInfo snapshot. The scheduler's filter and score plugins read it by
// the candidate's dense index, so a placement hashes no node names.
type nodeSlot struct {
	node *cluster.Node
	q    *sim.Chan[podOp] // the kubelet's work queue
	rt   *crt.Runtime     // the node's container runtime, nil if none
	// reqCPU and pods are the requested CPU and the count of the node's
	// live pods, maintained on bind/unbind (O(1) per decision, replacing
	// the seed's O(nodes×pods) rescans — requestedScan and podsOnNodeScan
	// remain as the test oracles).
	reqCPU   float64
	pods     int
	cordoned bool
}

// Kube is the control plane plus its kubelets.
type Kube struct {
	env     *sim.Env
	cl      *cluster.Cluster
	prm     config.Params
	cp      *cplane.Plane
	pods    map[string]*Pod
	schedQ  *sim.Chan[*Pod]
	faults  *faults.Injector
	started bool
	stopped bool

	// nodes holds one slot per cluster node, indexed by cluster.Node.Index;
	// the submit node's slot (index 0) stays empty, as it runs no pods.
	// byName resolves the worker names the public calls take.
	nodes  []nodeSlot
	byName map[string]int

	// Placement: the policy picks among cands (the workers in stable order,
	// each carrying its node index) for req, one Request reused across
	// picks so the plugins' pointer to it costs no allocation; shapes backs
	// fitsEver; pending holds pods that fit no node right now, re-queued
	// when capacity frees — but only when the freed node could actually
	// take one (pendMinCPU/pendMinMem are conservative per-dimension minima
	// over the pending pods' requests, so a deletion storm of small pods
	// cannot trigger quadratic rescans of an unsatisfiable pending set).
	// schedOffset rotates the sampling window when SchedSamplePercent is
	// set; picks counts Policy.Pick calls for the regression tests.
	policy      sched.Policy
	cands       []sched.Candidate
	req         sched.Request
	shapes      []nodeShape
	pending     []*Pod
	pendMinCPU  float64
	pendMinMem  int
	schedOffset int
	picks       int
}

// New builds a control plane over the cluster's worker nodes (the submit
// node hosts the control plane itself, as in the paper's setup, and runs no
// pods). The runtimes may be shared with other consumers (e.g. the batch
// system's container universe); pass crt.NewSet(...) when nothing else needs
// them.
func New(env *sim.Env, cl *cluster.Cluster, runtimes crt.Set, prm config.Params) *Kube {
	k := &Kube{
		env:    env,
		cl:     cl,
		prm:    prm,
		cp:     cplane.New(env, prm),
		pods:   make(map[string]*Pod),
		schedQ: sim.NewUnbounded[*Pod](env),
		nodes:  make([]nodeSlot, 1+len(cl.Workers)),
		byName: make(map[string]int, len(cl.Workers)),
		cands:  make([]sched.Candidate, 0, len(cl.Workers)),
	}
	for _, w := range cl.Workers {
		k.nodes[w.Index] = nodeSlot{node: w, q: sim.NewUnbounded[podOp](env), rt: runtimes[w.Name]}
		k.byName[w.Name] = w.Index
		k.cands = append(k.cands, sched.Candidate{Name: w.Name, Index: w.Index, Node: w})
		shape := nodeShape{cores: w.Cores, memMB: w.MemMB}
		known := false
		for _, s := range k.shapes {
			if s == shape {
				known = true
				break
			}
		}
		if !known {
			k.shapes = append(k.shapes, shape)
		}
	}
	k.policy = k.policyFor(prm.KubePlacementPolicy)
	return k
}

// ControlPlane exposes the control-plane cost model, shared with the
// serving layer so autoscaler traffic contends on the same apiserver.
func (k *Kube) ControlPlane() *cplane.Plane { return k.cp }

// policyFor builds the named placement policy over this control plane's
// state. The empty name selects the seed scheduler's behaviour:
// least-requested CPU with stable node-order tie-breaking.
func (k *Kube) policyFor(name string) sched.Policy {
	requested := func(i int) float64 { return k.nodes[i].reqCPU }
	filters := []sched.Filter{
		sched.Cordoned(func(i int) bool { return k.nodes[i].cordoned }),
		sched.MemFit(),
		sched.CPUFit(requested),
	}
	tie := sched.LeastRequested(requested)
	var scores []sched.Score
	switch name {
	case "", sched.PolicyLeastRequested:
		name = sched.PolicyLeastRequested
		scores = []sched.Score{tie}
	case sched.PolicyBinPack:
		scores = []sched.Score{sched.BinPack(requested)}
	case sched.PolicySpread:
		scores = []sched.Score{sched.Spread(func(i int) int { return k.nodes[i].pods })}
	case sched.PolicyImageLocality:
		// Image presence dominates. Ties break by bin-packing, not
		// spreading: a scale-up burst binds its pods before the first pull
		// completes (no node advertises the image yet), and spreading those
		// pods would seed pulls everywhere — packing keeps the image, and
		// every later placement, on as few nodes as the CPU/mem filters
		// allow.
		im := sched.ImageLocality(func(i int, image string) bool {
			rt := k.nodes[i].rt
			return rt != nil && rt.HasImage(image)
		})
		im.Weight = 1000
		scores = []sched.Score{im, sched.BinPack(requested)}
	default:
		panic(fmt.Sprintf("kube: unknown placement policy %q", name))
	}
	pol := sched.Policy{Name: name, Filters: filters, Scores: scores, SamplePercent: k.prm.SchedSamplePercent}
	if err := pol.Validate(); err != nil {
		panic(err)
	}
	return pol
}

// Runtime exposes a node's container runtime (used to pre-pull images and
// by tests), nil for an unknown node.
func (k *Kube) Runtime(node string) *crt.Runtime {
	if s := k.slot(node); s != nil {
		return s.rt
	}
	return nil
}

// slot resolves a worker name to its node slot, nil for an unknown name.
func (k *Kube) slot(node string) *nodeSlot {
	if i, ok := k.byName[node]; ok {
		return &k.nodes[i]
	}
	return nil
}

// Workers returns the schedulable node names in stable order.
func (k *Kube) Workers() []string {
	names := make([]string, len(k.cl.Workers))
	for i, w := range k.cl.Workers {
		names[i] = w.Name
	}
	return names
}

// Start launches the scheduler and kubelet processes. It must be called
// once, from outside or inside simulation context, before pods are created.
func (k *Kube) Start() {
	if k.started {
		panic("kube: Start called twice")
	}
	k.started = true
	k.env.Go("kube-scheduler", k.schedulerLoop)
	for _, w := range k.cl.Workers {
		w := w
		k.env.Go("kubelet-"+w.Name, func(p *sim.Proc) { k.kubeletLoop(p, w) })
	}
}

// Shutdown closes the scheduler and kubelet work queues so their processes
// exit once already-queued operations (including pending pod deletions)
// drain. Call it after deleting all pods to let the simulation finish.
func (k *Kube) Shutdown() {
	k.stopped = true
	k.schedQ.Close()
	for _, w := range k.cl.Workers {
		k.nodes[w.Index].q.Close()
	}
}

// CreatePod registers a pod and queues it for scheduling. It does not
// block; wait for readiness with WaitReady.
func (k *Kube) CreatePod(spec PodSpec) (*Pod, error) {
	if !k.started {
		return nil, fmt.Errorf("kube: control plane not started")
	}
	if _, exists := k.pods[spec.Name]; exists {
		return nil, fmt.Errorf("kube: pod %q already exists", spec.Name)
	}
	pod := &Pod{Spec: spec, phase: PhasePending, createdAt: k.env.Now(), readyF: sim.NewFuture[error](k.env)}
	k.pods[spec.Name] = pod
	k.schedQ.TrySend(pod)
	return pod, nil
}

// DeletePod removes a pod: if still pending it is cancelled; otherwise the
// owning kubelet tears the container down. The control-plane store releases
// the pod's requests immediately (the scheduler sees the deletion write),
// while the kubelet observes it one deletion-propagation delay later.
func (k *Kube) DeletePod(name string) {
	pod, ok := k.pods[name]
	if !ok {
		return
	}
	delete(k.pods, name)
	pod.deleted = true
	pod.ready = false
	if pod.NodeName != "" {
		k.unbind(pod)
		k.deliver(k.slot(pod.NodeName), podOp{pod: pod, delete: true}, k.cp.DeleteDelay())
	}
}

// deliver hands a pod operation to a node's kubelet after the control
// plane's propagation delay. The zero-delay path is the seed's in-process
// send — no event is scheduled, so inactive planes stay byte-identical.
func (k *Kube) deliver(s *nodeSlot, op podOp, delay time.Duration) {
	q := s.q
	if delay <= 0 {
		q.TrySend(op)
		return
	}
	k.env.After(delay, func() {
		if !k.stopped { // queue closed by Shutdown; drop the late delivery
			q.TrySend(op)
		}
	})
}

// AttachFaults connects the control plane to the fault injector: a node
// crash (KindNodeCrash) drains the node — evicting its pods — and uncordons
// it when the reboot window ends; KindColdStartFail activates probabilistic
// pod bring-up failures after container start (readiness never reached).
func (k *Kube) AttachFaults(in *faults.Injector) {
	k.faults = in
	in.OnFault(faults.KindNodeCrash, func(f faults.Fault, begin bool) {
		if k.slot(f.Target) == nil {
			return
		}
		if begin {
			k.DrainNode(f.Target)
		} else {
			k.UncordonNode(f.Target)
		}
	})
}

// CordonNode marks a node unschedulable (kubectl cordon). Unknown names
// are ignored.
func (k *Kube) CordonNode(name string) {
	if s := k.slot(name); s != nil {
		s.cordoned = true
	}
}

// UncordonNode makes a node schedulable again and retries pending pods.
func (k *Kube) UncordonNode(name string) {
	if s := k.slot(name); s != nil {
		s.cordoned = false
	}
	k.kickPending()
}

// DrainNode cordons a node and deletes every pod bound to it (kubectl
// drain) — maintenance, spot reclamation, or failure. Workload controllers
// (the knative autoscaler here) replace the pods elsewhere.
func (k *Kube) DrainNode(name string) int {
	k.CordonNode(name)
	var victims []string
	for podName, pod := range k.pods {
		if pod.NodeName == name {
			victims = append(victims, podName)
		}
	}
	sort.Strings(victims) // deterministic eviction order
	for _, podName := range victims {
		k.DeletePod(podName)
	}
	return len(victims)
}

// WaitReady blocks until the pod becomes ready or fails, returning a non-nil
// error in the failure case.
func (k *Kube) WaitReady(p *sim.Proc, pod *Pod) error {
	return pod.readyF.Get(p)
}

// PodsOnNode counts live pods bound to a node, from the O(1) accounting
// maintained on bind/unbind (oracle: podsOnNodeScan) — the count the Spread
// score reads by node index once per candidate per placement, where the
// seed's store rescan made spread placements O(nodes×pods).
func (k *Kube) PodsOnNode(node string) int {
	if s := k.slot(node); s != nil {
		return s.pods
	}
	return 0
}

// podsOnNodeScan recomputes PodsOnNode by rescanning the pod store — the
// seed algorithm, kept as the oracle the accounting is asserted against in
// tests. The accounted flag's lifetime (bind → first unbind) coincides
// exactly with membership in this scan: DeletePod removes the pod from the
// store in the same step it unbinds, and every terminal phase transition
// for a pod still in the store unbinds it.
func (k *Kube) podsOnNodeScan(node string) int {
	n := 0
	for _, pod := range k.pods {
		if pod.NodeName == node && pod.phase != PhaseDead && pod.phase != PhaseFailed {
			n++
		}
	}
	return n
}

// schedulerLoop binds pending pods to the node chosen by the configured
// placement policy (default: lowest requested CPU, ties broken by stable
// node order). A pod that fits no node right now — but could once capacity
// frees — stays Pending and is retried on pod deletion and uncordon; only a
// pod that can never fit any node is failed outright.
func (k *Kube) schedulerLoop(p *sim.Proc) {
	for {
		pod, ok := k.schedQ.Recv(p)
		if !ok {
			return
		}
		if pod.deleted {
			continue
		}
		p.Sleep(k.prm.SchedulerLatency)
		node, dec := k.pickNode(pod.Spec)
		if node == nil {
			if !k.fitsEver(pod.Spec) {
				pod.phase = PhaseFailed
				pod.readyF.Set(fmt.Errorf("kube: no node fits pod %s", pod.Spec.Name))
				continue
			}
			p.Tracef("pod %s unschedulable, waiting for capacity", pod.Spec.Name)
			k.addPending(pod)
			continue
		}
		s := &k.nodes[node.Index]
		k.bind(pod, s)
		sched.Record(trace.FromEnv(k.env), nil, "kube", k.policy, podRequest(pod.Spec), dec)
		p.Tracef("bound pod %s to %s", pod.Spec.Name, node.Name)
		k.deliver(s, podOp{pod: pod}, k.cp.BindDelay())
	}
}

func podRequest(spec PodSpec) sched.Request {
	return sched.Request{Name: spec.Name, Image: spec.Image, CPURequest: spec.CPURequest, MemMB: spec.MemMB}
}

func (k *Kube) pickNode(spec PodSpec) (*cluster.Node, sched.Decision) {
	k.picks++
	offset := 0
	if k.policy.SamplePercent > 0 {
		// Rotate the sampling window so no suffix of the node list is
		// permanently shadowed. Without sampling the offset stays 0 — the
		// seed's stable node-order tie-breaking.
		offset = k.schedOffset
		k.schedOffset++
	}
	k.req = podRequest(spec)
	d := k.policy.Pick(&k.req, k.cands, offset)
	if d.Winner == nil {
		return nil, d
	}
	return d.Winner.Node, d
}

// Picks returns the number of placement decisions evaluated so far (for
// scheduler-load regression tests).
func (k *Kube) Picks() int { return k.picks }

// fitsEver reports whether some worker could take the pod on an otherwise
// empty cluster (cordons ignored — they lift). False means waiting is
// pointless: the pod must fail. It scans the distinct node shapes, not the
// nodes, so it stays O(1)-ish at thousands of homogeneous workers.
func (k *Kube) fitsEver(spec PodSpec) bool {
	for _, s := range k.shapes {
		if spec.MemMB <= s.memMB && spec.CPURequest <= float64(s.cores) {
			return true
		}
	}
	return false
}

// bind assigns the pod to a node and charges its requests to the node's
// accounting.
func (k *Kube) bind(pod *Pod, s *nodeSlot) {
	pod.NodeName = s.node.Name
	pod.phase = PhaseScheduled
	pod.accounted = true
	s.reqCPU += pod.Spec.CPURequest
	s.pods++
}

// unbind releases a bound pod's requested resources (idempotent via the
// accounted flag — every terminal path calls it) and retries pending pods,
// since capacity just freed on the pod's node.
func (k *Kube) unbind(pod *Pod) {
	if !pod.accounted {
		return
	}
	pod.accounted = false
	s := k.slot(pod.NodeName)
	s.reqCPU -= pod.Spec.CPURequest
	s.pods--
	k.kickPendingFor(s)
}

// addPending records a pod that fits no node right now and folds its
// requests into the conservative per-dimension minima the kick gate checks.
func (k *Kube) addPending(pod *Pod) {
	if len(k.pending) == 0 || pod.Spec.CPURequest < k.pendMinCPU {
		k.pendMinCPU = pod.Spec.CPURequest
	}
	if len(k.pending) == 0 || pod.Spec.MemMB < k.pendMinMem {
		k.pendMinMem = pod.Spec.MemMB
	}
	k.pending = append(k.pending, pod)
}

// kickPendingFor re-queues the pending pods when capacity freed on node
// could actually take one of them. The gate compares the node's free CPU
// (scheduler accounting) and free memory (admission accounting) against the
// per-dimension minima of the pending pods' requests — exactly the
// quantities the CPUFit/MemFit filters would check. It can only err towards
// kicking (the minima may belong to different pods, and deleted pending
// pods can leave them stale-low), never towards stranding a schedulable
// pod: a pod the filters would accept on this node necessarily clears both
// minima. A deletion storm of small pods against an unsatisfiable pending
// set therefore triggers zero rescans instead of deletions×pending Picks.
func (k *Kube) kickPendingFor(s *nodeSlot) {
	if len(k.pending) == 0 {
		return
	}
	if s.cordoned {
		return // freed capacity is unschedulable until uncordon, which kicks
	}
	if float64(s.node.Cores)-s.reqCPU < k.pendMinCPU {
		return
	}
	if s.node.MemMB-s.node.MemUsedMB() < k.pendMinMem {
		return
	}
	k.kickPending()
}

// kickPending unconditionally re-queues every pending pod.
func (k *Kube) kickPending() {
	if k.stopped || len(k.pending) == 0 {
		return
	}
	pend := k.pending
	k.pending = nil
	for _, pod := range pend {
		if pod.deleted {
			continue
		}
		k.schedQ.TrySend(pod)
	}
}

// requestedScan recomputes a node's requested CPU by rescanning the pod
// store — the seed algorithm, kept as the oracle the incremental
// accounting is asserted against in tests.
func (k *Kube) requestedScan(node string) float64 {
	cpu := 0.0
	for _, pod := range k.pods {
		if pod.NodeName == node && pod.phase != PhaseDead && pod.phase != PhaseFailed {
			cpu += pod.Spec.CPURequest
		}
	}
	return cpu
}

// kubeletLoop reconciles pods bound to one node.
func (k *Kube) kubeletLoop(p *sim.Proc, node *cluster.Node) {
	q := k.nodes[node.Index].q
	for {
		op, ok := q.Recv(p)
		if !ok {
			return
		}
		if op.delete {
			k.teardown(p, op.pod, node)
			continue
		}
		// Pod startups proceed in parallel (the kubelet does not serialize
		// unrelated pods); image-layer pulls still contend on the network.
		pod := op.pod
		p.Env().Go("pod-start-"+pod.Spec.Name, func(pp *sim.Proc) {
			k.bringUp(pp, pod, node)
		})
	}
}

// bringUp drives a bound pod to readiness; its duration is the cold-start
// cost: admission + image pull (if absent) + container create + start + app
// init + readiness probe.
func (k *Kube) bringUp(p *sim.Proc, pod *Pod, node *cluster.Node) {
	sp := trace.Start(p, "kube", "pod-bringup",
		trace.L("pod", pod.Spec.Name), trace.L("node", node.Name))
	pop := trace.FromEnv(k.env).Push(sp)
	defer func() { pop(); sp.End() }()
	if pod.deleted {
		sp.SetLabel("status", "cancelled")
		pod.phase = PhaseDead
		k.unbind(pod)
		pod.readyF.Set(fmt.Errorf("kube: pod %s deleted before startup", pod.Spec.Name))
		return
	}
	fail := func(err error) {
		sp.SetLabel("status", "failed")
		pod.phase = PhaseFailed
		k.unbind(pod)
		pod.readyF.Set(err)
	}
	if err := node.ReserveMem(pod.Spec.MemMB); err != nil {
		fail(err)
		return
	}
	pod.phase = PhaseStarting
	rt := k.nodes[node.Index].rt
	if err := rt.PullImage(p, pod.Spec.Image); err != nil {
		node.ReleaseMem(pod.Spec.MemMB)
		fail(err)
		return
	}
	c, err := rt.Create(p, pod.Spec.Image, pod.Spec.CapCores)
	if err != nil {
		node.ReleaseMem(pod.Spec.MemMB)
		fail(err)
		return
	}
	if err := c.Start(p); err != nil {
		_ = c.StopRemove(p)
		node.ReleaseMem(pod.Spec.MemMB)
		fail(err)
		return
	}
	if k.faults != nil && k.faults.Roll(faults.KindColdStartFail, node.Name) {
		// The container came up but the application inside it crashed before
		// readiness (bad init, OOM, crash loop).
		_ = c.StopRemove(p)
		node.ReleaseMem(pod.Spec.MemMB)
		fail(faults.Transientf("kube: pod %s: injected cold-start failure on %s", pod.Spec.Name, node.Name))
		return
	}
	pod.container = c
	p.Sleep(pod.Spec.AppInit)
	// Readiness is observed at the next probe tick.
	p.Sleep(k.prm.ReadinessProbeInterval)
	if pod.deleted { // deleted during startup; tear down now
		sp.SetLabel("status", "cancelled")
		_ = c.StopRemove(p)
		node.ReleaseMem(pod.Spec.MemMB)
		pod.phase = PhaseDead
		k.unbind(pod)
		pod.readyF.Set(fmt.Errorf("kube: pod %s deleted during startup", pod.Spec.Name))
		return
	}
	// The kubelet posts the Ready condition to the control plane; watchers
	// (the serving layer's WaitReady) observe it after the status write
	// propagates. Zero delay = the seed's instantaneous readiness.
	if d := k.cp.StatusDelay(); d > 0 {
		p.Sleep(d)
		if pod.deleted {
			sp.SetLabel("status", "cancelled")
			_ = c.StopRemove(p)
			node.ReleaseMem(pod.Spec.MemMB)
			pod.phase = PhaseDead
			k.unbind(pod)
			pod.readyF.Set(fmt.Errorf("kube: pod %s deleted during startup", pod.Spec.Name))
			return
		}
	}
	pod.phase = PhaseRunning
	pod.ready = true
	pod.readyAt = p.Now()
	pod.readyF.Set(nil)
	p.Tracef("pod %s ready on %s", pod.Spec.Name, node.Name)
}

func (k *Kube) teardown(p *sim.Proc, pod *Pod, node *cluster.Node) {
	// A pod still starting up is cleaned up by its own bringUp process
	// (which observes pod.deleted when it resumes); tearing it down here
	// would double-release its resources.
	if pod.phase != PhaseRunning {
		return
	}
	if pod.container != nil && pod.container.State() == crt.StateRunning {
		_ = pod.container.StopRemove(p)
		node.ReleaseMem(pod.Spec.MemMB)
	}
	pod.phase = PhaseDead
	pod.ready = false
	k.unbind(pod) // normally already unbound at DeletePod; idempotent
	k.kickPendingFor(&k.nodes[node.Index])
}
