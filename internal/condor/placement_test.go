package condor

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestDataLocalityPlacement: under the data-locality policy a job whose
// input LFNs are scratch-resident on one node must be matched to that node,
// overriding the most-free round-robin rotation that would otherwise move
// consecutive jobs across startds.
func TestDataLocalityPlacement(t *testing.T) {
	f := newFixture(t, func(p *config.Params) {
		fastPerJob(p)
		p.CondorPlacementPolicy = "data-locality"
	})
	f.env.Go("main", func(p *sim.Proc) {
		f.cl.Workers[2].Scratch.Put(p, "wf/x.fits", 1<<20)
		f.cl.Workers[0].Scratch.Put(p, "wf/y.fits", 1<<20)
		for i, tc := range []struct {
			lfn  string
			want string
		}{
			{"wf/x.fits", f.cl.Workers[2].Name},
			{"wf/x.fits", f.cl.Workers[2].Name}, // repeat: rotation must not win over residency
			{"wf/y.fits", f.cl.Workers[0].Name},
		} {
			j := f.s.SubmitJob(JobSpec{
				Name:      fmt.Sprintf("loc-%d", i),
				InputLFNs: []string{tc.lfn},
				Run:       func(ctx *ExecContext) error { return nil },
			})
			if err := f.s.Wait(p, j); err != nil {
				t.Fatal(err)
			}
			if j.Node() != tc.want {
				t.Errorf("job %d (input %s): ran on %q, want %q", i, tc.lfn, j.Node(), tc.want)
			}
		}
		f.s.Shutdown()
	})
	f.env.Run()
}

// TestPickStartdReusesCandidateBuffer pins the matchmaker's allocation
// profile: a pick builds its candidates in the Schedd's reusable buffer, so
// a pick that finds no free slot allocates nothing, and a successful one
// allocates only the winner's per-plugin score list that sched.Policy.Pick
// returns with the decision.
func TestPickStartdReusesCandidateBuffer(t *testing.T) {
	f := newFixture(t, nil)
	j := &Job{Name: "probe"}
	var sd *startd
	if got := testing.AllocsPerRun(200, func() { sd, _ = f.s.pickStartdFor(j) }); got > 1 {
		t.Errorf("successful pick: %v allocations, want at most 1", got)
	}
	if sd == nil {
		t.Fatal("pick over an idle pool found no startd")
	}
	for _, sd := range f.s.startds {
		sd.free = 0
	}
	if got := testing.AllocsPerRun(200, func() { sd, _ = f.s.pickStartdFor(j) }); got != 0 {
		t.Errorf("saturated pick: %v allocations, want 0", got)
	}
	if sd != nil {
		t.Fatal("pick over a saturated pool found a startd")
	}
}
