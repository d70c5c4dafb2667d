// Command benchmark is the repository benchmark of the SafeMem simulator:
// five workloads driven through the public entry points (bench.Run, the
// campaign generator/executor/oracle, the detection fleet), end-to-end
// metrics from untraced runs, per-layer metrics from traced runs, and a
// correctness gate on every run. See README.md for the metric glossary.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash benchmark/run.sh --workload W|all --seed N --seconds S --trace 0|1 [--out FILE]
//	bash benchmark/run.sh compare [-workload W] PARENT_DIR CHANGE_DIR
//
// Every workload runs in its own re-executed process, so heap, RSS and GC
// state never carry over; set-up time is the median over several fresh
// processes.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed whose output digests digests.json records.
	defaultSeed = 1
	// setupProbes extra processes only set up, so set-up time is a median.
	setupProbes = 4
	// childTimeout bounds one measuring process.
	childTimeout = 170 * time.Second
	// outDir holds traces and profiles, relative to the repository root.
	outDir      = "benchmark/out"
	digestsPath = "benchmark/digests.json"
)

//go:embed digests.json
var digestsJSON []byte

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// result is the benchmark's output line for one workload.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runMain(args []string) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fl.String("workload", "all", "workload to run, or all")
	seed := fl.Uint64("seed", defaultSeed, "input seed")
	seconds := fl.Float64("seconds", 20, "measured seconds per run")
	trace := fl.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fl.String("out", "", "also write the result JSON to this file")
	update := fl.Bool("update-digests", false, "record this run's digests (seed 1 only) in "+digestsPath)
	child := fl.String("child", "", "internal: measure in this process (full|setup)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: usage: --workload W|all --seed N --seconds S --trace 0|1 [--out FILE]")
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	if *child != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res, err := runChild(ws[0], *seed, *seconds, *trace == 1, *child == "setup", outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", ws[0].name, err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return 1
		}
		return 0
	}

	recorded := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: digests.json:", err)
		return 1
	}
	all := map[string]result{}
	exit := 0
	for _, w := range ws {
		cr, err := measure(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if *seed == defaultSeed {
			switch {
			case *update:
				recorded[w.name] = cr.Digest
			case recorded[w.name] == "":
				cr.problem("no recorded digest for seed %d; run with --update-digests", defaultSeed)
			case cr.Digest != recorded[w.name]:
				cr.problem("output digest %s differs from the recorded %s", cr.Digest, recorded[w.name])
			}
		}
		res := report(os.Stdout, w, cr, *seed, *seconds, *trace == 1)
		all[w.name] = res
		if !res.Correct {
			exit = 1
		}
	}
	if *update {
		if err := writeJSON(digestsPath, recorded); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeJSON(*out, all); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return exit
}

// measure runs the workload's measuring process, preceded for untraced runs
// by setupProbes processes that only set up; setup_s and heap_live_mb are
// medians over all of them.
func measure(w *workload, seed uint64, seconds float64, traced bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	var setups, heaps []float64
	if !traced {
		for k := 0; k < setupProbes; k++ {
			r, err := spawn(exe, append(args, "--child", "setup"))
			if err != nil {
				return nil, err
			}
			setups, heaps = append(setups, r.SetupS), append(heaps, r.HeapMB)
		}
	}
	r, err := spawn(exe, append(args, "--child", "full"))
	if err != nil {
		return nil, err
	}
	if !traced {
		r.Metrics["setup_s"] = median(append(setups, r.SetupS))
		r.Metrics["heap_live_mb"] = median(append(heaps, r.HeapMB))
	}
	return r, nil
}

// spawn runs one child process and decodes the result on its last line.
func spawn(exe string, args []string) (*childResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	// The child dies with this process, so stopping the benchmark never
	// leaves a measuring process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("measuring process %v: %w", args, err)
	}
	line, err := lastLine(out)
	if err != nil {
		return nil, err
	}
	var r childResult
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, fmt.Errorf("measuring process output: %w", err)
	}
	return &r, nil
}

func lastLine(out []byte) ([]byte, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 || lines[len(lines)-1] == "" {
		return nil, errors.New("no output")
	}
	return []byte(lines[len(lines)-1]), nil
}

// report prints the workload's metrics as "name value unit" lines, its
// notes and problems, and finally the one-line JSON result.
func report(w io.Writer, wl *workload, cr *childResult, seed uint64, seconds float64, traced bool) result {
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %t\n", wl.name, seed, seconds, traced)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: len(cr.Problems) == 0, Attempted: cr.Attempted, Failed: cr.Failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := cr.Metrics[d.Name]
		if !ok {
			res.Correct = false
			cr.problem("metric %s was not measured", d.Name)
			continue
		}
		fmt.Fprintf(w, "%s %s %s\n", d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	fmt.Fprintf(w, "# attempted %d failed %d\n", cr.Attempted, cr.Failed)
	for _, n := range cr.Notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, p := range cr.Problems {
		fmt.Fprintln(w, "# INCORRECT: "+p)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
	return res
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
