package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// record is one benchmark run as the report subcommand saves it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// reportMain runs every workload several times, untraced on consecutive
// seeds, then once traced on the first, prints every metric's median and
// quartiles, and saves the runs for compare.
func reportMain(args []string) int {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	runs := fs.Int("runs", 5, "untraced runs per workload, one seed each")
	seed0 := fs.Uint64("seed", primarySeed, "first seed")
	seconds := fs.Float64("seconds", 25, "seconds measured per run")
	names := fs.String("workloads", "serve,place,workflow", "comma-separated workloads")
	out := fs.String("out", "", "file to save the runs in, as JSON")
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag
	var recs []record
	for _, name := range strings.Split(*names, ",") {
		if _, ok := workloads[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench report: unknown workload %q\n", name)
			return 2
		}
		for _, tr := range []bool{false, true} {
			n := *runs
			if tr {
				n = 1
			}
			for i := 0; i < n; i++ {
				seed := *seed0 + uint64(i)
				res, err := runBenchmark(name, seed, *seconds, tr)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench report: %v\n", err)
					return 1
				}
				recs = append(recs, record{name, seed, tr, res})
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(recs, "", " ")
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench report: save runs: %v\n", err)
			return 1
		}
	}
	writeSummary(recs)
	return 0
}

// summary is one metric's values over the runs of one workload.
type summary struct {
	unit   string
	values []float64
}

func summarize(recs []record) (map[string]map[string]*summary, []string) {
	by := map[string]map[string]*summary{}
	var order []string
	for _, r := range recs {
		m := by[r.Workload]
		if m == nil {
			m = map[string]*summary{}
			by[r.Workload] = m
			order = append(order, r.Workload)
		}
		for name, v := range r.Result.Metrics {
			s := m[name]
			if s == nil {
				s = &summary{unit: v.Unit}
				m[name] = s
			}
			s.values = append(s.values, v.Value)
		}
	}
	return by, order
}

func writeSummary(recs []record) {
	by, order := summarize(recs)
	for _, w := range order {
		failed, attempted := 0, 0
		for _, r := range recs {
			if r.Workload == w {
				failed += r.Result.Failed
				attempted += r.Result.Attempted
			}
		}
		fmt.Printf("\n%s: %d of %d ops failed a check\n", w, failed, attempted)
		fmt.Printf("%-28s %-12s %3s %14s %14s %14s %8s\n", "metric", "unit", "n", "median", "q1", "q3", "iqr/med")
		for _, name := range sortedKeys(by[w]) {
			s := by[w][name]
			q1, med, q3 := quartiles(s.values)
			fmt.Printf("%-28s %-12s %3d %14.6g %14.6g %14.6g %8.4f\n", name, s.unit, len(s.values), med, q1, q3, spread(q1, med, q3))
		}
	}
}

// compareMain compares two saved sets of runs metric by metric. For the
// end-to-end metrics it applies the bounds BENCHMARK.json fixes: a median
// worse than the base's by more than the bound is a regression, and a
// metric whose base spread exceeds its bound is unresolved.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintf(os.Stderr, "usage: perfbench compare base.json new.json\n")
		return 2
	}
	var sets [2][]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 1
		}
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var f struct {
			EndToEnd []struct {
				Name, Better string
				Bound        float64
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(b, &f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: BENCHMARK.json: %v\n", err)
			return 1
		}
		for _, m := range f.EndToEnd {
			bounds[m.Name], better[m.Name] = m.Bound, m.Better
		}
	}
	base, _ := summarize(sets[0])
	next, order := summarize(sets[1])
	regressions := 0
	for _, w := range order {
		fmt.Printf("\n%s\n%-28s %-12s %14s %14s %8s %8s  %s\n", w, "metric", "unit", "base", "new", "new/base", "spread", "verdict")
		for _, name := range sortedKeys(next[w]) {
			a, b := base[w][name], next[w][name]
			if a == nil {
				continue
			}
			q1, ma, q3 := quartiles(a.values)
			_, mb, _ := quartiles(b.values)
			verdict := ""
			if bound, ok := bounds[name]; ok {
				verdict = judge(a.values, b.values, ma, mb, spread(q1, ma, q3), bound, better[name] == "higher")
				if verdict == "regression" {
					regressions++
				}
			}
			fmt.Printf("%-28s %-12s %14.6g %14.6g %8.4f %8.4f  %s\n", name, b.unit, ma, mb, mb/ma, spread(q1, ma, q3), verdict)
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

// judge classifies one end-to-end metric.
func judge(a, b []float64, ma, mb, spread, bound float64, higherBetter bool) string {
	worse := (mb - ma) / ma
	if higherBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if (higherBetter && x <= y) || (!higherBetter && x >= y) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "better in every run"
	case worse > bound:
		return "regression"
	case spread > bound:
		return "unresolved"
	}
	return "within bound"
}

// quartiles returns the first quartile, median and third quartile by the
// method of Python's statistics.quantiles(values, n=4).
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / med)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
