package wms

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/condor"
	"repro/internal/config"
	"repro/internal/crt"
	"repro/internal/knative"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// ServiceResolver maps a transformation name to its deployed serverless
// function. The integration layer (internal/core) provides it after
// registering functions with Knative.
type ServiceResolver func(transformation string) (*knative.Service, bool)

// DataStaging selects how task data moves between jobs (§V-E discusses the
// alternatives).
type DataStaging int

const (
	// StageByValue is the paper's implemented strategy: inputs and outputs
	// travel in condor file-transfer sandboxes, and serverless invocations
	// carry file contents in the request/response bodies (§IV-3).
	StageByValue DataStaging = iota
	// StageSharedFS is the alternative strategy (§V-E): files live on a
	// shared filesystem exported by the submit node; every task reads its
	// inputs from and writes its outputs to the share, and serverless
	// requests carry only references.
	StageSharedFS
	// StageObjectStore keeps files in a Minio-like object service (§V-E
	// names Minio explicitly): tasks GET inputs and PUT outputs; requests
	// carry only object references.
	StageObjectStore
)

func (d DataStaging) String() string {
	switch d {
	case StageByValue:
		return "by-value"
	case StageSharedFS:
		return "shared-fs"
	case StageObjectStore:
		return "object-store"
	default:
		return fmt.Sprintf("DataStaging(%d)", int(d))
	}
}

// referenceBytes is the size of a file-reference manifest when data stays
// on the shared filesystem.
const referenceBytes = 512

// TaskResult records how one task executed.
type TaskResult struct {
	ID       string
	Mode     Mode
	Node     string
	Attempts int

	SubmittedAt time.Duration
	StartedAt   time.Duration
	FinishedAt  time.Duration
}

// RunResult summarises one workflow run.
type RunResult struct {
	Workflow   string
	StartedAt  time.Duration
	FinishedAt time.Duration
	Tasks      map[string]*TaskResult

	// Hedges counts speculative task copies launched; HedgeWins counts
	// tasks resolved by a hedge copy finishing before the original.
	Hedges    int
	HedgeWins int
}

// Makespan is the workflow's wall-clock duration.
func (r *RunResult) Makespan() time.Duration { return r.FinishedAt - r.StartedAt }

// ModeCount returns how many tasks ran in the given mode.
func (r *RunResult) ModeCount(m Mode) int {
	n := 0
	for _, t := range r.Tasks {
		if t.Mode == m {
			n++
		}
	}
	return n
}

// Engine is the DAGMan-like executor: it plans each abstract task into a
// condor job for its assigned mode and drives the DAG, polling the queue
// every DAGManPoll like condor_dagman does.
type Engine struct {
	Env      *sim.Env
	Cl       *cluster.Cluster
	Pool     *condor.Schedd
	Runtimes crt.Set
	Reg      *registry.Registry
	Catalogs *Catalogs
	Prm      config.Params
	// Services resolves serverless functions; required only when some task
	// is assigned ModeServerless.
	Services ServiceResolver
	// Retry governs task resubmission (Pegasus-style retry): total attempt
	// budget plus exponential backoff between a task's failure and its
	// resubmission. The zero value means one attempt, no retries.
	Retry config.RetryPolicy
	// Staging selects the data-movement strategy (default StageByValue).
	Staging DataStaging
	// FS is the shared filesystem, required when Staging is StageSharedFS.
	FS *storage.SharedFS
	// Store is the object service, required when Staging is
	// StageObjectStore. Objects live in the workflow-named bucket.
	Store *storage.ObjectStore
	// Checkpoint configures checkpoint/restart for native tasks (§II-C).
	Checkpoint Checkpoint
	// MaxInflight throttles how many of a workflow's jobs may be in the
	// condor queue at once (DAGMan's -maxjobs); 0 = unlimited.
	MaxInflight int
	// Budget, when non-nil, gates every task resubmission through a shared
	// token-bucket retry budget (successes deposit, retries withdraw). A
	// denied resubmission aborts the workflow with a rescue instead of
	// letting correlated failures amplify into a resubmission storm.
	Budget *resilience.RetryBudget
	// HedgeAfter launches a speculative duplicate of a task whose newest
	// copy has been in flight longer than this (straggler mitigation): the
	// first copy to complete wins, the rest are abandoned like the jobs a
	// rescue DAG leaves behind. 0 disables hedging.
	HedgeAfter time.Duration
	// HedgeMax caps speculative copies per task attempt (0 means 1).
	HedgeMax int
	// Deadline bounds the whole run relative to its start. When it passes,
	// the engine aborts with a rescue; serverless submissions carry the
	// absolute deadline so the serving layer drops work past it too.
	Deadline time.Duration
	// Broker carries task-settled events under the "trigger" execution mode
	// (config.ExecTrigger); required for that mode, unused otherwise.
	Broker *knative.Broker

	progress map[string]*taskProgress
}

// flight is one task's in-flight attempt: the primary condor job plus any
// speculative hedge copies. spans and hedged are index-aligned with jobs;
// spans[0] is nil (the primary is covered by the task-attempt span), hedge
// copies get their own "hedge" spans. hedged marks which copies are
// speculative — win accounting keys off it rather than the spans, which are
// nil when no tracer is attached.
type flight struct {
	attempt *trace.Span
	jobs    []*condor.Job
	spans   []*trace.Span
	hedged  []bool
}

// RunWorkflow executes the workflow with the given mode assignment and
// blocks until it completes. It returns per-task provenance. When a task
// exhausts the engine's retry budget the error is an *AbortError carrying a
// Rescue; ResumeWorkflow (or RunWorkflowWithRecovery) continues from it.
func (e *Engine) RunWorkflow(p *sim.Proc, wf *Workflow, assign ModeAssigner) (*RunResult, error) {
	return e.run(p, wf, assign, nil)
}

// run is the shared front half of RunWorkflow and ResumeWorkflow: it
// validates the DAG, stages external inputs, assigns modes, reinstates any
// rescue state, and then hands the prepared dagRun to the execution-mode
// driver selected by Prm.ExecMode (exec_poll.go, exec_event.go). A non-nil
// rescue pre-marks finished tasks and reinstates checkpoint progress.
func (e *Engine) run(p *sim.Proc, wf *Workflow, assign ModeAssigner, rescue *Rescue) (*RunResult, error) {
	execMode, err := config.ParseExecMode(e.Prm.ExecMode)
	if err != nil {
		return nil, err
	}
	if execMode == config.ExecTrigger && e.Broker == nil {
		return nil, fmt.Errorf("wms: execution mode %q needs Engine.Broker", execMode)
	}
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	switch e.Staging {
	case StageSharedFS:
		if e.FS == nil {
			return nil, fmt.Errorf("wms: shared-fs staging needs Engine.FS")
		}
		// The replica catalog's job: workflow inputs are already on the
		// share before the run begins.
		for _, f := range wf.ExternalInputs() {
			e.FS.Touch(f.LFN, f.Bytes)
		}
	case StageObjectStore:
		if e.Store == nil {
			return nil, fmt.Errorf("wms: object-store staging needs Engine.Store")
		}
		for _, f := range wf.ExternalInputs() {
			e.Store.Seed(wf.Name, f.LFN, f.Bytes)
		}
	}
	res := &RunResult{
		Workflow:  wf.Name,
		StartedAt: p.Now(),
		Tasks:     make(map[string]*TaskResult, wf.Len()),
	}

	tracer := trace.FromEnv(e.Env)
	wfSpan := tracer.StartCurrent("wms", "workflow", trace.L("workflow", wf.Name))
	defer wfSpan.End() // End is idempotent; covers error returns too

	d := newDagRun(e, wf, assign, res, tracer, wfSpan)

	if rescue != nil {
		// Rescue-DAG resume: finished tasks are planned out of the DAG and
		// their recorded provenance carries over; checkpointed partial
		// progress is reinstated; the makespan spans the original start.
		res.StartedAt = rescue.StartedAt
		for id, tr := range rescue.Done {
			i, exists := wf.index[id]
			if !exists {
				return nil, fmt.Errorf("wms: rescue records unknown task %q", id)
			}
			d.markDone(i)
			res.Tasks[id] = tr
		}
		e.restoreProgress(wf, rescue)
	}
	d.countdown() // after the rescue: its finished tasks count as done

	// The workflow deadline is absolute from the (possibly rescued) start,
	// and propagates into every serverless submission.
	if e.Deadline > 0 {
		d.absDeadline = res.StartedAt + e.Deadline
	}

	switch execMode {
	case config.ExecDecentralized:
		err = e.runEvent(p, d, nil)
	case config.ExecTrigger:
		err = e.runEvent(p, d, e.Broker)
	default:
		err = e.runPoll(p, d)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// submitTask plans one task into a condor job for its mode and submits it.
// A non-zero deadline (absolute virtual time) rides along into serverless
// invocations so the serving layer can drop work past it.
func (e *Engine) submitTask(wf *Workflow, task *TaskSpec, mode Mode, deadline time.Duration) (*condor.Job, error) {
	tr, ok := e.Catalogs.Transformation(task.Transformation)
	if !ok {
		return nil, fmt.Errorf("wms: unknown transformation %q", task.Transformation)
	}
	name := wf.Name + "/" + task.ID
	var requires func(*cluster.Node) bool
	if task.RequireNode != "" {
		want := task.RequireNode
		requires = func(n *cluster.Node) bool { return n.Name == want }
	}
	remoteData := e.Staging != StageByValue

	// Sandbox sizes: with condorio staging the matrices travel with the
	// job; with a shared filesystem or object store only tiny manifests do.
	inBytes, outBytes := task.InputBytes(), task.OutputBytes()
	if remoteData {
		inBytes, outBytes = referenceBytes, referenceBytes
	}

	// stageIn/stageOut touch the data service from the execution node when
	// remote staging is on; no-ops for condorio. With ScratchCache on,
	// shared-fs staging keeps a scratch copy of every file that passes
	// through a node: stage-out writes it alongside the share, and stage-in
	// short-circuits to local scratch when the file is already resident —
	// the residency the data-locality placement policy steers towards.
	stageIn := func(p *sim.Proc, node string) error {
		for _, f := range task.Inputs {
			switch e.Staging {
			case StageSharedFS:
				if e.Prm.ScratchCache {
					sc := e.Cl.MustNode(node).Scratch
					if sc.Has(f.LFN) {
						if _, err := sc.Get(p, f.LFN); err != nil {
							return err
						}
						continue
					}
					size, err := e.FS.Read(p, node, f.LFN)
					if err != nil {
						return err
					}
					sc.Put(p, f.LFN, size)
					continue
				}
				if _, err := e.FS.Read(p, node, f.LFN); err != nil {
					return err
				}
			case StageObjectStore:
				if _, err := e.Store.Get(p, node, wf.Name, f.LFN); err != nil {
					return err
				}
			}
		}
		return nil
	}
	stageOut := func(p *sim.Proc, node string) error {
		for _, f := range task.Outputs {
			switch e.Staging {
			case StageSharedFS:
				if e.Prm.ScratchCache {
					e.Cl.MustNode(node).Scratch.Put(p, f.LFN, f.Bytes)
				}
				e.FS.Write(p, node, f.LFN, f.Bytes)
			case StageObjectStore:
				if err := e.Store.Put(p, node, wf.Name, f.LFN, f.Bytes); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// The task's logical input files feed condor's data-locality placement
	// score (residency only ever matters under remote staging).
	var inputLFNs []string
	if remoteData {
		for _, f := range task.Inputs {
			inputLFNs = append(inputLFNs, f.LFN)
		}
	}
	submit := func(inB, outB int64, run condor.JobFunc) *condor.Job {
		return e.Pool.SubmitJob(condor.JobSpec{
			Name:                name,
			Priority:            task.Priority,
			Requires:            requires,
			TransferInputBytes:  inB,
			TransferOutputBytes: outB,
			InputLFNs:           inputLFNs,
			Run:                 run,
		})
	}

	switch mode {
	case ModeNative:
		// Setup 1: the task runs straight on the claimed slot.
		return submit(inBytes, outBytes, func(ctx *condor.ExecContext) error {
			if err := stageIn(ctx.Proc, ctx.Node.Name); err != nil {
				return err
			}
			sp := trace.Start(ctx.Proc, "exec", "exec",
				trace.L("task", name), trace.L("node", ctx.Node.Name))
			if e.checkpointingActive() {
				if err := e.runCheckpointed(ctx, name, task.EffectiveWorkScale()); err != nil {
					sp.SetLabel("status", "failed")
					sp.End()
					return err
				}
			} else {
				work := e.Cl.NextTaskWork() * task.EffectiveWorkScale()
				ctx.Node.Exec(ctx.Proc, work, 1)
			}
			sp.End()
			return stageOut(ctx.Proc, ctx.Node.Name)
		}), nil

	case ModeContainer:
		// Setup 2: the image travels with the job, is loaded on the worker,
		// and a fresh container runs the task under a one-core quota.
		img, ok := e.Reg.Image(tr.Image)
		if !ok {
			return nil, fmt.Errorf("wms: image %q for transformation %q not in registry", tr.Image, tr.Name)
		}
		return submit(inBytes+img.Bytes(), outBytes, func(ctx *condor.ExecContext) error {
			rt, ok := e.Runtimes[ctx.Node.Name]
			if !ok {
				return fmt.Errorf("wms: no container runtime on %s", ctx.Node.Name)
			}
			rt.ImportImage(ctx.Proc, img)
			c, err := rt.Create(ctx.Proc, img.Name, 1)
			if err != nil {
				return err
			}
			// Tear the container down on every exit so a retried attempt
			// starts from a clean slate — leaking a container per failed
			// attempt would make resubmission non-idempotent (and slowly eat
			// the node under fault injection).
			cleanup := func(err error) error {
				_ = c.StopRemove(ctx.Proc)
				return err
			}
			if err := c.Start(ctx.Proc); err != nil {
				return cleanup(err)
			}
			if err := stageIn(ctx.Proc, ctx.Node.Name); err != nil {
				return cleanup(err)
			}
			work := e.Cl.NextTaskWork() * task.EffectiveWorkScale()
			if err := c.Exec(ctx.Proc, work); err != nil {
				return cleanup(err)
			}
			if err := stageOut(ctx.Proc, ctx.Node.Name); err != nil {
				return cleanup(err)
			}
			return c.StopRemove(ctx.Proc)
		}), nil

	case ModeServerless:
		// Setup 3: the original job is replaced by an invoker wrapper. The
		// wrapper is itself a condor job (the critical path includes it,
		// §IV-4). With by-value staging, inputs come to the wrapper's node
		// and travel to the function in the request body; with shared-fs
		// staging the function's node reads the share directly.
		if e.Services == nil {
			return nil, fmt.Errorf("wms: task %s assigned serverless but no service resolver configured", name)
		}
		svc, ok := e.Services(task.Transformation)
		if !ok {
			return nil, fmt.Errorf("wms: no serverless function registered for transformation %q", task.Transformation)
		}
		return submit(inBytes, outBytes, func(ctx *condor.ExecContext) error {
			ws := trace.Start(ctx.Proc, "wms", "wrapper-startup",
				trace.L("task", name), trace.L("node", ctx.Node.Name))
			ctx.Proc.Sleep(e.Prm.WrapperStartup) // python invoker script startup
			ws.End()
			work := e.Cl.NextTaskWork() * task.EffectiveWorkScale()
			req := knative.Request{
				From:       ctx.Node.Name,
				PayloadIn:  task.InputBytes(),
				PayloadOut: task.OutputBytes(),
				Work:       work,
				Deadline:   deadline,
			}
			if remoteData {
				req.PayloadIn, req.PayloadOut = referenceBytes, referenceBytes
				req.StageIn = stageIn
				req.StageOut = stageOut
			}
			_, err := svc.Invoke(ctx.Proc, req)
			return err
		}), nil

	default:
		return nil, fmt.Errorf("wms: unknown mode %v", mode)
	}
}
