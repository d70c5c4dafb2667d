package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metric       `json:"end_to_end"`
	PerLayer   []metric       `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// readSpec reads BENCHMARK.json from the checkout in dir.
func readSpec(dir string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s/BENCHMARK.json: %w", dir, err)
	}
	return &s, nil
}

const (
	// comparePairs is the number of parent/change pairs per workload.
	comparePairs = 10
	// compareSeed is the seed of the first pair; pair p uses compareSeed+p.
	compareSeed = 1000
)

// compareMain runs the parent and change checkouts in alternating pairs on
// every workload and reports, per workload and end-to-end metric, each
// side's quartiles, the change's win count and a verdict.
func compareMain(args []string) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	name := fl.String("workload", "all", "workload to compare, or all")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: usage: compare [-workload W] PARENT_DIR CHANGE_DIR")
		return 2
	}
	dirs := [2]string{fl.Arg(0), fl.Arg(1)}
	spec, err := readSpec(dirs[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	fmt.Printf("%-15s %-18s %-30s %-30s %-6s %s\n", "workload", "metric",
		"parent q1/median/q3", "change q1/median/q3", "wins", "verdict")
	for _, wn := range names {
		vals := [2]map[string][]float64{{}, {}}
		for p := 0; p < comparePairs; p++ {
			order := []int{0, 1}
			if p%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				r, err := runCheckout(dirs[side], spec.Command, wn, compareSeed+uint64(p), spec.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s in %s: %v\n", wn, dirs[side], err)
					return 1
				}
				for k, v := range r.Metrics {
					vals[side][k] = append(vals[side][k], v.Value)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			c := compareMetric(vals[0][m.Name], vals[1][m.Name], m.Bound, m.Better == "higher")
			fmt.Printf("%-15s %-18s %-30s %-30s %-6s %s\n", wn, m.Name, c.parent, c.change,
				fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		}
	}
	return 0
}

// runCheckout runs one untraced benchmark run in a checkout directory.
func runCheckout(dir string, command []string, workload string, seed uint64, seconds int) (*result, error) {
	args := append(append([]string{}, command[1:]...), "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	line, err := lastLine(out)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, err
	}
	if !r.Correct {
		return nil, errors.New("run reported incorrect output")
	}
	return &r, nil
}

// comparison is one metric's parent-versus-change verdict.
type comparison struct {
	parent, change string // "q1/median/q3"
	wins, pairs    int
	verdict        string
}

// compareMetric applies the benchmark's acceptance rule to paired runs
// (parent[i] and change[i] ran as pair i):
//
//   - "unresolved" when either side's spread (IQR over median) exceeds the
//     bound, unless every change run beats every parent run ("gain");
//   - "regression" when the change's median is worse than the parent's by
//     more than the bound;
//   - "gain" when the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ by more than the
//     parent's IQR;
//   - "within bound" otherwise.
func compareMetric(parent, change []float64, bound float64, higherBetter bool) comparison {
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	c := comparison{
		parent: fmt.Sprintf("%.4g/%.4g/%.4g", pq1, pm, pq3),
		change: fmt.Sprintf("%.4g/%.4g/%.4g", cq1, cm, cq3),
		pairs:  min(len(parent), len(change)),
	}
	for i := 0; i < c.pairs; i++ {
		if better(change[i], parent[i]) {
			c.wins++
		}
	}
	separated := len(parent) > 0 && len(change) > 0
	for _, cv := range change {
		for _, pv := range parent {
			if !better(cv, pv) {
				separated = false
			}
		}
	}
	worse := (higherBetter && cm < pm*(1-bound)) || (!higherBetter && cm > pm*(1+bound))
	gap := cm - pm
	if gap < 0 {
		gap = -gap
	}
	switch {
	case max(relIQR(parent), relIQR(change)) > bound:
		c.verdict = "unresolved"
		if separated {
			c.verdict = "gain"
		}
	case worse:
		c.verdict = "regression"
	case better(cm, pm) && 10*c.wins >= 9*c.pairs && gap > pq3-pq1:
		c.verdict = "gain"
	default:
		c.verdict = "within bound"
	}
	return c
}
