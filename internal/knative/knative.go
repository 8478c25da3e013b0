// Package knative models Knative Serving on top of the kube substrate:
// services with revisions of pods, a KPA-style concurrency autoscaler with
// stable and panic windows, an activator that buffers requests while scaling
// from zero, and a per-pod queue-proxy enforcing container concurrency.
//
// The annotations the paper manipulates map directly onto ServiceSpec
// fields: "autoscaling.knative.dev/min-scale" → MinScale (pre-provision
// containers on k workers and keep them), "autoscaling.knative.dev/
// initial-scale" → InitialScale (0 defers the image download and container
// creation to the first invocation, the Pegasus-like behaviour of §IV-2),
// and containerConcurrency → ContainerConcurrency (1 isolates concurrent
// requests from each other; higher values let tasks share a warm container).
package knative

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/kpa"
	"repro/internal/kube"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AutoscalerClass selects the scaling algorithm, mirroring the
// "autoscaling.knative.dev/class" annotation.
type AutoscalerClass int

const (
	// ClassKPA is knative's pod autoscaler: concurrency-based with stable
	// and panic windows, able to scale to zero (the default).
	ClassKPA AutoscalerClass = iota
	// ClassHPA is the kubernetes horizontal pod autoscaler: CPU-utilization
	// based, slower cadence, no panic mode, no scale-to-zero.
	ClassHPA
)

// RoutePolicy selects how the router picks among ready replicas.
type RoutePolicy int

const (
	// RouteLeastRequests picks the replica with the fewest in-flight
	// requests (knative's default behaviour).
	RouteLeastRequests RoutePolicy = iota
	// RouteLeastNodeLoad picks the replica whose node currently has the
	// least CPU load — the paper's §IX-D "task redirection" extension:
	// steer work away from overloaded nodes at invocation time.
	RouteLeastNodeLoad
)

// ServiceSpec declares a serverless function service.
type ServiceSpec struct {
	// Name is the service (and route) name.
	Name string
	// Image is the function's container image.
	Image string
	// ContainerConcurrency is the hard limit of in-flight requests one pod
	// serves at a time (0 = effectively unlimited).
	ContainerConcurrency int
	// Target is the autoscaler's desired average concurrency per pod
	// (0 = platform default).
	Target float64
	// MinScale keeps at least this many replicas at all times
	// ("autoscaling.knative.dev/min-scale").
	MinScale int
	// InitialScale is the replica count provisioned at deployment time
	// ("autoscaling.knative.dev/initial-scale"); 0 defers all container
	// work to the first invocation.
	InitialScale int
	// MaxScale bounds the replica count (0 = unbounded).
	MaxScale int
	// CPURequest, MemMB, and CapCores size each pod.
	CPURequest float64
	MemMB      int
	CapCores   float64
	// AppInit is the in-container startup time before readiness.
	AppInit time.Duration
	// Routing selects the replica-picking policy (default: least requests).
	Routing RoutePolicy
	// Class selects the autoscaling algorithm (default: KPA).
	Class AutoscalerClass
	// ScalingMetric selects the KPA class's driving signal — concurrency
	// (default) or requests/s, the "autoscaling.knative.dev/metric"
	// annotation. Target is interpreted in the chosen metric's unit.
	ScalingMetric kpa.Metric
}

// Request is one function invocation. File inputs travel by value in the
// request body and results return in the response (§IV-3), so payload sizes
// are part of the request. Alternatively the StageIn/StageOut hooks let an
// integration fetch data on the serving node itself (e.g. from a shared
// filesystem or object store, the §V-E alternative strategy).
type Request struct {
	// From is the node issuing the HTTP call.
	From string
	// PayloadIn is the request body size (the task's input files when
	// passing by value; a small reference manifest otherwise).
	PayloadIn int64
	// PayloadOut is the response body size.
	PayloadOut int64
	// Work is the task's service demand in core-seconds.
	Work float64
	// StageIn, if set, runs on the serving replica's node before the task
	// body (inside the concurrency gate) — e.g. reading inputs from a
	// shared filesystem.
	StageIn func(p *sim.Proc, node string) error
	// StageOut, if set, runs on the serving node after the task body —
	// e.g. writing outputs back to the shared filesystem.
	StageOut func(p *sim.Proc, node string) error
	// Deadline is the request's absolute virtual-time deadline. It
	// propagates with the request and is enforced at activator admission,
	// at every queue wake-up, and at the queue-proxy just before
	// execution; a request past it is dropped with ErrDeadlineExceeded
	// rather than allowed to consume capacity producing an answer nobody
	// is waiting for. 0 means no deadline; when Params.InvokeDeadline is
	// set, Invoke stamps absent deadlines on entry.
	Deadline time.Duration
}

// Response reports how an invocation was served.
type Response struct {
	// PodNode is the worker that executed the function.
	PodNode string
	// Cold reports whether the request waited on a scale-from-zero.
	Cold bool
	// Queued is how long the request waited for pod capacity.
	Queued time.Duration
}

type podState int

const (
	podStarting podState = iota
	podReady
	podTerminating
)

type podHandle struct {
	id    int
	pod   *kube.Pod
	state podState
	// inFlight counts the requests holding one of the replica's slots; the
	// queue-proxy admits at most the service's slots() at a time.
	inFlight int
}

// Service is a deployed serverless function.
type Service struct {
	kn    *Knative
	spec  ServiceSpec
	ascfg kpa.Config // validated autoscaler parameterization (KPA or HPA)

	pods     []*podHandle
	nextPod  int
	rr       int // round-robin offset for tie-breaking
	inFlight int

	readySig *sim.Signal
	stopped  bool

	// Overload protection (nil members = disabled, the seed behaviour).
	breaker   *resilience.Breaker
	admission *resilience.Admission
	ewma      time.Duration // EWMA of observed per-slot service time

	// Stats for experiments.
	ColdStarts    int
	Requests      int
	DeadlineDrops int
}

// OverloadStats are the per-service overload-protection counters.
type OverloadStats struct {
	// ShedFull / ShedWait are activator sheds: waiting room full, and
	// estimated wait exceeding the request's remaining deadline.
	ShedFull, ShedWait int
	// DeadlineDrops counts requests dropped past their deadline after
	// admission (queue wake-up or queue-proxy checks).
	DeadlineDrops int
	// BreakerTrips / BreakerFastFails are circuit-breaker transitions to
	// open and requests denied without reaching the service.
	BreakerTrips, BreakerFastFails int
}

// Overload returns the service's protection counters.
func (s *Service) Overload() OverloadStats {
	full, wait := s.admission.Shed()
	return OverloadStats{
		ShedFull:         full,
		ShedWait:         wait,
		DeadlineDrops:    s.DeadlineDrops,
		BreakerTrips:     s.breaker.Trips(),
		BreakerFastFails: s.breaker.FastFails(),
	}
}

// Knative is the serving control plane.
type Knative struct {
	env *sim.Env
	cl  *cluster.Cluster
	k   *kube.Kube
	prm config.Params

	services []*Service
	byName   map[string]*Service
	brokers  []*Broker

	// budget is the serving layer's shared retry budget: invoke retries
	// across every service draw from one bucket, so a single failing
	// service cannot amplify into a platform-wide retry storm. Nil when
	// Params.RetryBudgetRatio is 0 (unlimited retries, seed behaviour).
	budget *resilience.RetryBudget
}

// New builds a serving layer over the given kube control plane (which must
// be started).
func New(env *sim.Env, cl *cluster.Cluster, k *kube.Kube, prm config.Params) *Knative {
	kn := &Knative{env: env, cl: cl, k: k, prm: prm, byName: make(map[string]*Service)}
	if prm.RetryBudgetRatio > 0 {
		kn.budget = resilience.NewRetryBudget(prm.RetryBudgetRatio, prm.RetryBudgetBurst)
	}
	return kn
}

// RetryBudget exposes the serving layer's shared invoke retry budget (nil
// when disabled) for experiment-level amplification accounting.
func (kn *Knative) RetryBudget() *resilience.RetryBudget { return kn.budget }

// Deploy registers a service and blocks until its initial replicas (if any)
// are ready — task registration happens before workflow execution (§IV-1).
// The service's autoscaler parameterization (from Params plus the spec) is
// validated here, so a misconfiguration — e.g. a panic window wider than
// the stable window, which the pre-kpa loop silently truncated — fails the
// deployment instead of silently scaling wrong.
func (kn *Knative) Deploy(p *sim.Proc, spec ServiceSpec) (*Service, error) {
	if _, dup := kn.byName[spec.Name]; dup {
		return nil, fmt.Errorf("knative: service %q already exists", spec.Name)
	}
	if spec.Target <= 0 {
		spec.Target = kn.prm.DefaultTarget
	}
	var ascfg kpa.Config
	if spec.Class == ClassHPA {
		ascfg = kn.hpaConfig(spec)
	} else {
		ascfg = kn.kpaConfig(spec)
	}
	if err := ascfg.Validate(); err != nil {
		return nil, fmt.Errorf("knative: deploy %s: %w", spec.Name, err)
	}
	svc := &Service{kn: kn, spec: spec, ascfg: ascfg, readySig: sim.NewSignal(kn.env)}
	svc.breaker = resilience.NewBreaker(resilience.BreakerPolicy{
		Failures:       kn.prm.BreakerFailures,
		OpenFor:        kn.prm.BreakerOpenFor,
		HalfOpenProbes: kn.prm.BreakerHalfOpenProbes,
	})
	svc.admission = resilience.NewAdmission(kn.prm.ActivatorQueueCap)
	kn.services = append(kn.services, svc)
	kn.byName[spec.Name] = svc

	initial := ascfg.Initial()
	for i := 0; i < initial; i++ {
		svc.addPod()
	}
	// Registration is synchronous: wait for the initial replicas.
	for _, h := range svc.pods {
		if err := kn.k.WaitReady(p, h.pod); err != nil {
			return nil, fmt.Errorf("knative: deploy %s: %w", spec.Name, err)
		}
	}
	if spec.Class == ClassHPA {
		kn.env.Go("hpa-"+spec.Name, svc.hpaLoop)
	} else {
		kn.env.Go("autoscaler-"+spec.Name, svc.autoscalerLoop)
	}
	return svc, nil
}

// Service returns a deployed service by name.
func (kn *Knative) Service(name string) (*Service, bool) {
	svc, ok := kn.byName[name]
	return svc, ok
}

// AttachFaults connects the serving layer to the fault injector: a pod kill
// (KindPodKill, target = service name, or empty for every service) evicts
// one ready replica, which the autoscaler later replaces. In-flight requests
// on the killed replica fail and are retried by Invoke's policy.
func (kn *Knative) AttachFaults(in *faults.Injector) {
	in.OnFault(faults.KindPodKill, func(f faults.Fault, begin bool) {
		if !begin {
			return
		}
		for _, svc := range kn.services {
			if f.Target != "" && svc.spec.Name != f.Target {
				continue
			}
			svc.killOnePod()
		}
	})
}

// killOnePod evicts the first ready replica (deterministic: pods keep
// creation order), modelling an external eviction or OOM kill.
func (s *Service) killOnePod() {
	for _, h := range s.pods {
		if !h.ready() {
			continue
		}
		h.state = podTerminating
		s.kn.k.DeletePod(h.pod.Spec.Name)
		s.removeHandle(h)
		s.readySig.Broadcast()
		return
	}
}

// Shutdown stops every broker and every service's autoscaler, deletes all
// pods, and lets the simulation drain.
func (kn *Knative) Shutdown() {
	for _, b := range kn.brokers {
		b.shutdown()
	}
	for _, svc := range kn.services {
		svc.stopped = true
		for _, h := range svc.pods {
			h.state = podTerminating
			kn.k.DeletePod(h.pod.Spec.Name)
		}
		svc.pods = nil
		svc.readySig.Broadcast()
	}
}

// Spec returns the service's declaration.
func (s *Service) Spec() ServiceSpec { return s.spec }

// ready reports whether a replica is serving. Readiness derives from the
// kube pod itself so it is visible the moment the kubelet reports it,
// independent of watcher scheduling.
func (h *podHandle) ready() bool {
	return h.state != podTerminating && h.pod.Ready()
}

// ReadyPods counts serving replicas.
func (s *Service) ReadyPods() int {
	n := 0
	for _, h := range s.pods {
		if h.ready() {
			n++
		}
	}
	return n
}

// StartingPods counts replicas still coming up.
func (s *Service) StartingPods() int {
	n := 0
	for _, h := range s.pods {
		if h.state == podStarting && !h.pod.Ready() {
			n++
		}
	}
	return n
}

// InFlight returns current concurrency (served + queued requests).
func (s *Service) InFlight() int { return s.inFlight }

// addPod creates one replica and watches it to readiness.
func (s *Service) addPod() *podHandle {
	name := fmt.Sprintf("%s-%05d", s.spec.Name, s.nextPod)
	s.nextPod++
	h := &podHandle{id: s.nextPod}
	pod, err := s.kn.k.CreatePod(kube.PodSpec{
		Name:       name,
		Image:      s.spec.Image,
		CPURequest: s.spec.CPURequest,
		MemMB:      s.spec.MemMB,
		CapCores:   s.spec.CapCores,
		AppInit:    s.spec.AppInit,
	})
	if err != nil {
		panic("knative: " + err.Error())
	}
	h.pod = pod
	s.pods = append(s.pods, h)
	s.kn.env.Go("watch-"+name, func(p *sim.Proc) {
		if err := s.kn.k.WaitReady(p, pod); err != nil {
			s.removeHandle(h)
			s.readySig.Broadcast() // let activator waiters re-examine
			return
		}
		if h.state == podStarting {
			h.state = podReady
		}
		s.readySig.Broadcast()
	})
	return h
}

func (s *Service) removeHandle(h *podHandle) {
	for i, x := range s.pods {
		if x == h {
			s.pods = append(s.pods[:i], s.pods[i+1:]...)
			return
		}
	}
}

// Invoke performs one synchronous function call: route to a replica
// (buffering in the activator on scale-from-zero), move the input payload to
// the replica's node, execute under the queue-proxy's concurrency gate, and
// return the output payload. Replica failures (scale-down races, pod kills)
// are retried through the full path under the InvokeRetry policy, with
// exponential backoff between attempts; application-level (staging) errors
// surface to the caller unretried.
//
// With overload protection configured, Invoke additionally: stamps a
// default deadline from Params.InvokeDeadline, fast-fails when the
// service's circuit breaker is open (ErrCircuitOpen, not retried), feeds
// the breaker with backend verdicts, and gates every retry through the
// serving layer's shared retry budget — an exhausted budget surfaces the
// last backend error instead of re-amplifying it.
func (s *Service) Invoke(p *sim.Proc, req Request) (Response, error) {
	prm := s.kn.prm
	if req.Deadline == 0 && prm.InvokeDeadline > 0 {
		req.Deadline = p.Now() + prm.InvokeDeadline
	}
	rp := prm.InvokeRetry
	for attempt := 1; ; attempt++ {
		now := p.Now()
		if !s.breaker.Allow(now) {
			br := trace.Start(p, "knative", "breaker",
				trace.L("service", s.spec.Name),
				trace.L("state", s.breaker.State(now).String()))
			br.End()
			return Response{}, fmt.Errorf("knative: service %s: %w", s.spec.Name, resilience.ErrCircuitOpen)
		}
		resp, err, retryable := s.invokeOnce(p, req, attempt)
		now = p.Now()
		switch {
		case err == nil:
			s.breaker.OnSuccess(now)
			s.kn.budget.OnSuccess()
			return resp, nil
		case retryable:
			// Backend failure (replica death): the breaker's signal.
			s.breaker.OnFailure(now)
		default:
			// Shed, deadline drop, or application error: no verdict on
			// backend health — return a claimed half-open probe slot.
			s.breaker.OnDrop(now)
			return resp, err
		}
		if attempt >= rp.Attempts() {
			return resp, err
		}
		if !s.kn.budget.TryRetry() {
			return resp, fmt.Errorf("knative: service %s: retry budget exhausted: %w", s.spec.Name, err)
		}
		bo := trace.Start(p, "knative", "backoff",
			trace.L("service", s.spec.Name), trace.L("attempt", strconv.Itoa(attempt)))
		p.Sleep(rp.Backoff(attempt, p.Rand()))
		bo.End()
	}
}

// invokeOnce is one attempt of the invocation path. The third return value
// reports whether the error class is retryable (replica death) as opposed to
// terminal (shutdown, staging failure).
func (s *Service) invokeOnce(p *sim.Proc, req Request, attempt int) (Response, error, bool) {
	if s.stopped {
		return Response{}, fmt.Errorf("knative: service %s is shut down", s.spec.Name), false
	}
	s.Requests++

	tr := trace.FromEnv(s.kn.env)
	sp := tr.StartCurrent("knative", "invoke",
		trace.L("service", s.spec.Name), trace.L("attempt", strconv.Itoa(attempt)))
	pop := tr.Push(sp)
	defer func() { pop(); sp.End() }()

	kn := s.kn
	// Ingress hop: client → route.
	kn.cl.Net.Message(p, req.From, cluster.SubmitNodeName)

	// Activator admission: a bounded waiting room replaces the unbounded
	// ingress buffer. Requests already past their deadline, arriving to a
	// full room, or facing an estimated wait longer than their remaining
	// budget are shed at the door — before they consume queue space or
	// pod capacity.
	remaining := resilience.Remaining(req.Deadline, p.Now())
	if req.Deadline > 0 && remaining <= 0 {
		s.DeadlineDrops++
		sp.SetLabel("status", "deadline")
		return Response{}, fmt.Errorf("knative: service %s: %w at admission", s.spec.Name, resilience.ErrDeadlineExceeded), false
	}
	if err := s.admission.TryEnter(s.estimateWait(), remaining); err != nil {
		shed := tr.Start(sp, "knative", "shed",
			trace.L("service", s.spec.Name), trace.L("reason", shedReason(err)))
		shed.End()
		sp.SetLabel("status", "shed")
		return Response{}, fmt.Errorf("knative: service %s: %w", s.spec.Name, err), false
	}
	admitted := true
	exitAdmission := func() {
		if admitted {
			s.admission.Exit()
			admitted = false
		}
	}
	defer exitAdmission()

	s.inFlight++
	defer func() { s.inFlight-- }()

	// The wait predicates capture the deadline alone: capturing req would
	// move the whole request to the heap.
	deadline := req.Deadline
	cold := false
	if s.ReadyPods() == 0 {
		// Activator path: ensure a replica is coming and buffer.
		cold = true
		s.ColdStarts++
		cs := tr.Start(sp, "knative", "coldstart", trace.L("service", s.spec.Name))
		if s.StartingPods() == 0 {
			s.scaleTo(1)
		}
		// Buffer until a replica is ready, the service stops, or the
		// request's deadline passes.
		warm := func() bool {
			return s.ReadyPods() > 0 || s.stopped || resilience.Expired(deadline, p.Now())
		}
		if !warm() {
			s.readySig.Wait(p, warm)
		}
		cs.End()
		if s.ReadyPods() == 0 {
			if s.stopped {
				sp.SetLabel("status", "failed")
				return Response{}, fmt.Errorf("knative: service %s shut down while queued", s.spec.Name), false
			}
			s.DeadlineDrops++
			sp.SetLabel("status", "deadline")
			return Response{}, fmt.Errorf("knative: service %s: %w during cold start", s.spec.Name, resilience.ErrDeadlineExceeded), false
		}
	}

	// Route when capacity exists: requests buffer at the ingress (as the
	// activator/queue-proxy pair does) and take the first free slot on any
	// ready replica, so freshly scaled pods immediately absorb queued load.
	// Every wake-up re-checks the deadline so a queued request that missed
	// its budget is dropped instead of occupying a slot.
	enq := p.Now()
	qs := tr.Start(sp, "knative", "queue", trace.L("service", s.spec.Name))
	var h *podHandle
	routed := func() bool {
		if s.stopped || resilience.Expired(deadline, p.Now()) {
			return true
		}
		h = s.pickAvailable()
		return h != nil
	}
	if !routed() {
		s.readySig.Wait(p, routed)
	}
	if h == nil {
		qs.End()
		if s.stopped {
			sp.SetLabel("status", "failed")
			return Response{}, fmt.Errorf("knative: service %s shut down while queued", s.spec.Name), false
		}
		s.DeadlineDrops++
		sp.SetLabel("status", "deadline")
		return Response{}, fmt.Errorf("knative: service %s: %w in queue", s.spec.Name, resilience.ErrDeadlineExceeded), false
	}
	exitAdmission() // holding a serving slot: leave the waiting room
	qs.SetLabel("node", h.pod.NodeName)
	qs.End()
	queued := p.Now() - enq
	sp.SetLabel("node", h.pod.NodeName)
	slotStart := p.Now()

	resp := Response{PodNode: h.pod.NodeName, Cold: cold, Queued: queued}
	// Pass-by-value file handling (§IV-3): the caller marshals the input
	// files into the request body, the function unmarshals them; the
	// response payload pays the same costs in reverse.
	pi := tr.Start(sp, "knative", "payload-in")
	p.Sleep(kn.codecTime(req.PayloadIn))
	kn.cl.Net.Transfer(p, req.From, h.pod.NodeName, req.PayloadIn)
	p.Sleep(kn.codecTime(req.PayloadIn))
	pi.End()
	qp := tr.Start(sp, "knative", "queue-proxy")
	p.Sleep(kn.prm.QueueProxyOverhead)
	qp.End()
	// Queue-proxy deadline enforcement: last check before the function
	// body runs. Payload transfer and proxy overhead may have consumed
	// the remaining budget; executing anyway would waste a pod slot on a
	// response nobody is waiting for.
	if resilience.Expired(req.Deadline, p.Now()) {
		h.inFlight--
		s.readySig.Broadcast()
		s.DeadlineDrops++
		sp.SetLabel("status", "deadline")
		return resp, fmt.Errorf("knative: service %s: %w at queue-proxy", s.spec.Name, resilience.ErrDeadlineExceeded), false
	}
	var stageErr error
	var execErr error
	if req.StageIn != nil {
		stageErr = req.StageIn(p, h.pod.NodeName)
	}
	if stageErr == nil {
		execErr = h.pod.Exec(p, req.Work)
		if execErr == nil && req.StageOut != nil {
			stageErr = req.StageOut(p, h.pod.NodeName)
		}
	}
	if stageErr == nil && execErr == nil {
		po := tr.Start(sp, "knative", "payload-out")
		p.Sleep(kn.codecTime(req.PayloadOut))
		kn.cl.Net.Transfer(p, h.pod.NodeName, req.From, req.PayloadOut)
		p.Sleep(kn.codecTime(req.PayloadOut))
		po.End()
	}
	h.inFlight--
	s.readySig.Broadcast() // capacity freed: admit ingress-buffered requests
	if execErr != nil {
		// The replica died under us (scale-down race, pod kill): retryable.
		sp.SetLabel("status", "failed")
		return resp, execErr, true
	}
	if stageErr != nil {
		// Application-level failure: surface to the caller, no retry.
		sp.SetLabel("status", "failed")
		return resp, stageErr, false
	}
	s.observeSlotTime(p.Now() - slotStart)
	return resp, nil, false
}

// shedReason labels a shed span with which admission check fired.
func shedReason(err error) string {
	if errors.Is(err, resilience.ErrWouldExpire) {
		return "would-expire"
	}
	return "queue-full"
}

// estimateWait predicts the queue wait a newly arriving request faces: the
// requests already waiting ahead of it each hold a serving slot for about
// one EWMA service time, spread across the service's slots. Zero until the
// first completion seeds the EWMA (admit optimistically while cold).
func (s *Service) estimateWait() time.Duration {
	if s.admission == nil || s.ewma <= 0 {
		return 0
	}
	slots := s.servingSlots()
	return time.Duration(float64(s.admission.Waiting()) / float64(slots) * float64(s.ewma))
}

// servingSlots is the service's current request parallelism: ready pods ×
// container concurrency, falling back to starting pods during a cold start
// so the estimate doesn't divide by zero.
func (s *Service) servingSlots() int {
	cc := s.spec.ContainerConcurrency
	if cc <= 0 {
		return 1 << 20 // effectively unlimited: queue waits are ≈ 0
	}
	pods := s.ReadyPods()
	if pods == 0 {
		pods = s.StartingPods()
	}
	if pods == 0 {
		pods = 1
	}
	return pods * cc
}

// observeSlotTime folds one completed request's slot-holding time (payload
// movement + proxy + execution) into the EWMA behind estimateWait.
func (s *Service) observeSlotTime(d time.Duration) {
	if s.ewma == 0 {
		s.ewma = d
		return
	}
	s.ewma = (3*s.ewma + d) / 4
}

// codecTime returns the (un)marshalling time of a payload.
func (kn *Knative) codecTime(bytes int64) time.Duration {
	if kn.prm.PayloadCodecBps <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / kn.prm.PayloadCodecBps * float64(time.Second))
}

// routeName is the placement-layer name of a replica-routing policy, as
// recorded on sched/place spans.
func routeName(r RoutePolicy) string {
	if r == RouteLeastNodeLoad {
		return "least-node-load"
	}
	return "least-requests"
}

// slots is a replica's request-slot count: the container concurrency, or
// effectively unlimited when the spec leaves it unset.
func (s *Service) slots() int {
	if cc := s.spec.ContainerConcurrency; cc > 0 {
		return cc
	}
	return 1 << 20
}

// routeScore ranks a ready replica for routing; higher is better. Both
// policies encode "lowest wins" by negation: in-flight requests, or for
// RouteLeastNodeLoad the node's CPU queue length first with in-flight
// requests as the tie-break (§IX-D task redirection).
func (s *Service) routeScore(h *podHandle) float64 {
	if s.spec.Routing == RouteLeastNodeLoad {
		node := s.kn.cl.MustNode(h.pod.NodeName)
		return -(float64(node.CPU.Load())*1e6 + float64(h.inFlight))
	}
	return -float64(h.inFlight)
}

// pickAvailable chooses a ready replica with a free request slot and claims
// the slot, or returns nil when every ready replica is saturated. It keeps
// sched.Policy.Pick's contract in one allocation-free pass: replicas are
// visited in creation order rotated by the round-robin counter, advanced on
// every pick, and only a strictly higher routeScore displaces the
// incumbent, so equal replicas take turns as the knative ingress balances
// equal backends. With a tracer attached the decision is recorded as a
// sched/place span.
func (s *Service) pickAvailable() *podHandle {
	s.rr++
	n := len(s.pods)
	if n == 0 {
		return nil
	}
	cc := s.slots()
	var best *podHandle
	bestScore := 0.0
	feasible := 0
	for i := 0; i < n; i++ {
		h := s.pods[(i+s.rr)%n]
		if !h.ready() || h.inFlight >= cc {
			continue
		}
		feasible++
		if score := s.routeScore(h); best == nil || score > bestScore {
			best, bestScore = h, score
		}
	}
	if best == nil {
		return nil
	}
	if tr := trace.FromEnv(s.kn.env); tr != nil {
		s.recordPick(tr, best, bestScore, feasible)
	}
	best.inFlight++
	return best
}

// recordPick emits a routing decision through sched.Record, labelled as a
// one-score placement policy would label it: the total is the weighted sum
// 0 + 1·score, which is +0 where the plugin's own value is -0.
func (s *Service) recordPick(tr *trace.Tracer, h *podHandle, score float64, feasible int) {
	name := routeName(s.spec.Routing)
	total := 0.0
	total += score
	sched.Record(tr, tr.Current(), "knative", sched.Policy{Name: name},
		sched.Request{Name: s.spec.Name},
		sched.Decision{
			Winner:    &sched.Candidate{Name: h.pod.NodeName},
			Score:     total,
			Feasible:  feasible,
			PerPlugin: []sched.PluginScore{{Plugin: name, Value: score}},
		})
}

// purgeDead removes handles whose pods were killed out from under the
// service (node drains, evictions) so reconciliation sees the true replica
// count and replaces them.
func (s *Service) purgeDead() {
	kept := s.pods[:0]
	for _, h := range s.pods {
		ph := h.pod.Phase()
		if ph == kube.PhaseDead || ph == kube.PhaseFailed {
			continue
		}
		kept = append(kept, h)
	}
	s.pods = kept
}

// scaleTo reconciles the replica count towards desired: grows immediately,
// shrinks by removing idle replicas only (busy ones drain first).
func (s *Service) scaleTo(desired int) {
	if s.spec.MaxScale > 0 && desired > s.spec.MaxScale {
		desired = s.spec.MaxScale
	}
	if desired < s.spec.MinScale {
		desired = s.spec.MinScale
	}
	current := 0
	for _, h := range s.pods {
		if h.state != podTerminating {
			current++
		}
	}
	for current < desired {
		s.addPod()
		current++
	}
	for current > desired {
		h := s.idleVictim()
		if h == nil {
			return // nothing idle; retry next tick
		}
		h.state = podTerminating
		s.kn.k.DeletePod(h.pod.Spec.Name)
		s.removeHandle(h)
		current--
	}
}

// idleVictim returns the newest ready replica with no in-flight requests.
func (s *Service) idleVictim() *podHandle {
	for i := len(s.pods) - 1; i >= 0; i-- {
		h := s.pods[i]
		if h.ready() && h.inFlight == 0 {
			return h
		}
	}
	// Allow cancelling replicas that are still starting.
	for i := len(s.pods) - 1; i >= 0; i-- {
		h := s.pods[i]
		if h.state == podStarting && !h.pod.Ready() {
			return h
		}
	}
	return nil
}

// kpaConfig maps the platform parameters plus a service's spec onto the
// KPA-class autoscaler configuration. The zero values of the optional
// Params knobs (rate clamps, scale-down delay, activation scale, weighted
// windows) leave the seed parameterization untouched.
func (kn *Knative) kpaConfig(spec ServiceSpec) kpa.Config {
	prm := kn.prm
	agg := kpa.AggregationLinear
	if prm.KPAWeightedWindows {
		agg = kpa.AggregationWeighted
	}
	return kpa.Config{
		TargetValue:      spec.Target,
		ScalingMetric:    spec.ScalingMetric,
		Aggregation:      agg,
		Tick:             prm.AutoscalerTick,
		StableWindow:     prm.StableWindow,
		PanicWindow:      prm.PanicWindow,
		PanicThreshold:   prm.PanicThreshold,
		MaxScaleUpRate:   prm.MaxScaleUpRate,
		MaxScaleDownRate: prm.MaxScaleDownRate,
		ScaleDownDelay:   prm.ScaleDownDelay,
		ScaleToZeroGrace: prm.ScaleToZeroGrace,
		MinScale:         spec.MinScale,
		MaxScale:         spec.MaxScale,
		InitialScale:     spec.InitialScale,
		ActivationScale:  prm.ActivationScale,
	}
}

// hpaConfig maps a service's spec onto the HPA-class configuration: CPU
// utilization expressed as a concurrency target (in-flight requests each
// consume up to one core against the pod's quota, so the per-pod target is
// CapCores × target utilization), no panic mode, no scale to zero — the
// floor is max(MinScale, 1).
func (kn *Knative) hpaConfig(spec ServiceSpec) kpa.Config {
	perPod := 1.0
	if spec.CapCores > 0 {
		perPod = spec.CapCores
	}
	min := spec.MinScale
	if min < 1 {
		min = 1
	}
	return kpa.Config{
		TargetValue:  perPod * kn.prm.HPATargetUtilization,
		Tick:         kn.prm.HPASyncPeriod,
		StableWindow: kn.prm.HPASyncPeriod,
		MinScale:     min,
		MaxScale:     spec.MaxScale,
		InitialScale: spec.InitialScale,
	}
}

// autoscalerLoop is the KPA-class reconcile loop: every tick it records the
// instantaneous concurrency and the request rate over the elapsed tick into
// the sliding windows, asks the kpa autoscaler for a recommendation, and
// reconciles the replica count. All algorithmic state (windows, panic exit,
// idle clock, delay window) lives in internal/kpa.
func (s *Service) autoscalerLoop(p *sim.Proc) {
	tick := s.ascfg.Tick
	agg := kpa.NewMetricAggregator(s.ascfg)
	as := kpa.MustNew(s.ascfg)
	lastRequests := 0
	for !s.stopped {
		p.Sleep(tick)
		if s.stopped {
			return
		}
		// The metric scrape rides the control plane (an apiserver read in
		// the store-mediated baseline, a direct connection in direct mode);
		// zero delay = the seed's free metrics pipeline.
		if d := s.kn.k.ControlPlane().MetricReadDelay(); d > 0 {
			p.Sleep(d)
			if s.stopped {
				return
			}
		}
		s.purgeDead()
		now := p.Now()
		rps := float64(s.Requests-lastRequests) / tick.Seconds()
		lastRequests = s.Requests
		agg.Record(now, float64(s.inFlight), rps)
		rec := as.Scale(agg.Snapshot(now, s.ReadyPods()), now)
		if rec.Hold {
			continue
		}
		// The scale decision is a write the scheduler must observe before
		// the replica change takes effect.
		if d := s.kn.k.ControlPlane().ScaleWriteDelay(); d > 0 {
			p.Sleep(d)
			if s.stopped {
				return
			}
		}
		s.scaleTo(rec.Desired)
	}
}

// hpaLoop is the HPA-class reconcile loop: every sync period it feeds the
// instantaneous concurrency straight into the autoscaler (no windowing —
// the kubernetes HPA averages over its own metric pipeline, modelled here
// as the sync-period cadence itself).
func (s *Service) hpaLoop(p *sim.Proc) {
	as := kpa.MustNew(s.ascfg)
	for !s.stopped {
		p.Sleep(s.ascfg.Tick)
		if s.stopped {
			return
		}
		// Same control-plane costs as the KPA loop: metric read per sync,
		// scale write when acting. Zero delays = seed behaviour.
		if d := s.kn.k.ControlPlane().MetricReadDelay(); d > 0 {
			p.Sleep(d)
			if s.stopped {
				return
			}
		}
		s.purgeDead()
		ready := s.ReadyPods()
		if ready == 0 {
			continue
		}
		snap := kpa.Snapshot{
			StableValue: float64(s.inFlight),
			PanicValue:  float64(s.inFlight),
			ReadyPods:   ready,
			Valid:       true,
		}
		rec := as.Scale(snap, p.Now())
		if rec.Hold {
			continue
		}
		if d := s.kn.k.ControlPlane().ScaleWriteDelay(); d > 0 {
			p.Sleep(d)
			if s.stopped {
				return
			}
		}
		s.scaleTo(rec.Desired)
	}
}
