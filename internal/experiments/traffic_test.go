package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestTrafficArmsDifferentiate is the study's sanity gate on the quick
// size: every arm sees the same arrivals (the trace is seeded identically),
// everything completes or is accounted for, and the clamped arm — which
// holds capacity through the scale-down delay — spends at least as many
// pod-seconds as the seed configuration.
func TestTrafficArmsDifferentiate(t *testing.T) {
	o := QuickOptions()
	o.Workers = 1
	res := Traffic(o)
	if len(res.Rows) != len(TrafficArms()) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(TrafficArms()))
	}
	byName := map[string]TrafficRow{}
	for _, row := range res.Rows {
		byName[row.Arm] = row
		if row.Arrivals <= 0 {
			t.Errorf("arm %s saw no arrivals", row.Arm)
		}
		if row.P50Ms <= 0 || row.P999Ms < row.P99Ms || row.P99Ms < row.P50Ms {
			t.Errorf("arm %s has inconsistent percentiles: p50 %.1f p99 %.1f p999 %.1f",
				row.Arm, row.P50Ms, row.P99Ms, row.P999Ms)
		}
		if row.PodSecs <= 0 {
			t.Errorf("arm %s recorded no pod-seconds", row.Arm)
		}
	}
	for _, row := range res.Rows {
		if row.Arrivals != res.Rows[0].Arrivals {
			t.Errorf("arm %s arrivals %.0f != %s arrivals %.0f; trace not shared across arms",
				row.Arm, row.Arrivals, res.Rows[0].Arm, res.Rows[0].Arrivals)
		}
	}
	if byName["clamped"].PodSecs < byName["seed"].PodSecs {
		t.Errorf("clamped pod-seconds %.1f < seed %.1f; scale-down delay not holding capacity",
			byName["clamped"].PodSecs, byName["seed"].PodSecs)
	}
}

// TestTrafficTableDeterministicAcrossWorkers renders the full summary at
// two worker counts and requires byte identity — the user-facing half of
// the worker-invariance contract (TestWorkerCountInvariance covers the
// result structs).
func TestTrafficTableDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) []byte {
		o := QuickOptions()
		o.Workers = workers
		var buf bytes.Buffer
		if err := Traffic(o).WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, four := render(1), render(4)
	if !bytes.Equal(one, four) {
		t.Errorf("traffic summary differs between -workers 1 and -workers 4:\n--- 1 ---\n%s--- 4 ---\n%s", one, four)
	}
}

// TestSeedCompatGoldens replays the knative-heavy experiments and compares
// their rendered output byte-for-byte against goldens captured from the
// pre-refactor autoscaler (the seed's inline loop). Together with
// kpa.TestKPADifferentialSeedCompat this pins the default internal/kpa
// parameterization to the exact replica traces the old code produced.
func TestSeedCompatGoldens(t *testing.T) {
	type tableWriter interface {
		WriteTable(w io.Writer) error
	}
	cases := []struct {
		name string
		run  func(o Options) tableWriter
	}{
		{"coldstart", func(o Options) tableWriter { return ColdStart(o) }},
		{"fig1", func(o Options) tableWriter { return Fig1(o) }},
		{"fig5", func(o Options) tableWriter { return Fig5(o) }},
		{"overload", func(o Options) tableWriter { return Overload(o) }},
		// trace and chaos were captured immediately before the engine's
		// execution-mode refactor: they pin the poll-mode release path (the
		// default) to the seed loop's byte-exact traces and span orderings.
		{"trace", func(o Options) tableWriter { return Trace(o) }},
		{"chaos", func(o Options) tableWriter { return Chaos(o) }},
		// execmode was captured before the engine's incremental ready set:
		// it pins the decentralized and trigger release paths, which share
		// the poll loop's dependency countdown.
		{"execmode", func(o Options) tableWriter { return ExecModeStudy(o) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "seedcompat", tc.name+"-quick.golden"))
			if err != nil {
				t.Fatal(err)
			}
			o := QuickOptions()
			o.Workers = 0 // worker count is proven irrelevant; use the pool
			var buf bytes.Buffer
			// Reconstruct exactly what cmd/repro prints for one experiment.
			fmt.Fprintf(&buf, "== %s ==\n", tc.name)
			if err := tc.run(o).WriteTable(&buf); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(&buf)
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("%s output diverged from the seed autoscaler golden:\n--- got ---\n%s--- want ---\n%s",
					tc.name, buf.Bytes(), golden)
			}
		})
	}
}
