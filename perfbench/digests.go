package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// digests.json records, per workload and input seed, the digests of the
// simulated outputs of the code the benchmark was defined on. A change
// that only makes the simulator faster must reproduce them exactly; a run
// whose outputs differ fails its correctness check. Regenerate the file
// with the record subcommand only for a change that alters the model's
// outputs on purpose, and say so.
//
//go:embed digests.json
var digestsJSON []byte

// The seeds a claim is developed and confirmed on, and the input pools
// inputSeed draws workflow's DAG seeds from: runs develop on the primary
// seed, and the held-out seed is kept back for confirming a claim
// afterwards. The held-out pool is disjoint from the development pool.
const (
	primarySeed   = 1
	heldOutSeed   = 1009
	devInputs     = 16
	heldOutInputs = 4
)

type digestFile struct {
	// PrimarySeed and HeldOutSeed record the constants above, so a reader
	// of the file knows which seed is held out.
	PrimarySeed uint64 `json:"primary_seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
	// Digests maps workload, input seed and output name to a digest. A
	// workload whose inputs do not depend on the seed has its digests
	// under the seed "*".
	Digests map[string]map[string]map[string]string `json:"digests"`
}

// seedless lists the workloads whose inputs do not depend on the seed.
var seedless = []string{"place", "serve"}

func isSeedless(name string) bool {
	for _, n := range seedless {
		if n == name {
			return true
		}
	}
	return false
}

// expectedDigests returns the recorded digests for a workload and input
// seed, or nil when none were recorded.
func expectedDigests(name string, seed uint64) map[string]string {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		panic(fmt.Sprintf("embedded digests.json: %v", err))
	}
	byseed := f.Digests[name]
	if d, ok := byseed["*"]; ok {
		return d
	}
	return byseed[strconv.FormatUint(seed, 10)]
}

// recordMain prints a digests.json: one untraced round on every input of
// both pools, and one round of each seedless workload.
func recordMain(args []string) int {
	if len(args) != 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench record > perfbench/digests.json\n")
		return 2
	}
	var inputs []uint64
	for j := 0; j < devInputs; j++ {
		inputs = append(inputs, inputSeed(uint64(j), 0))
	}
	for j := 0; j < heldOutInputs; j++ {
		inputs = append(inputs, inputSeed(heldOutSeed, j))
	}
	f := digestFile{PrimarySeed: primarySeed, HeldOutSeed: heldOutSeed,
		Digests: map[string]map[string]map[string]string{}}
	for _, name := range sortedKeys(workloads) {
		f.Digests[name] = map[string]map[string]string{}
		ins := inputs
		if isSeedless(name) {
			ins = inputs[:1]
		}
		for _, in := range ins {
			rr := runRound(workloads[name].run, in, 1, false, io.Discard)
			if rr.Err != "" {
				fmt.Fprintf(os.Stderr, "perfbench record: %s input seed %d: %v\n", name, in, rr.Err)
				return 1
			}
			key := strconv.FormatUint(in, 10)
			if isSeedless(name) {
				key = "*"
			}
			f.Digests[name][key] = rr.Digests
			fmt.Fprintf(os.Stderr, "perfbench record: %s input seed %d: %v\n", name, in, rr.Digests)
		}
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench record: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
