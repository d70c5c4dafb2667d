package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload lists")

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{10, 1}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

// TestSamplesBeyond pins the count behind the "at least ten samples beyond
// the reported percentile" rule: p90 needs 100 samples, p99 a thousand.
func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 90, 10}, {99, 90, 9}, {1000, 99, 10}, {999, 99, 9}, {10, 50, 5}, {1, 90, 0},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread definition acceptance uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, [3]float64{2, 4, 5}},
		{[]float64{2.5, 1}, [3]float64{0.625, 1.75, 2.875}},
		{[]float64{7, 1, 3}, [3]float64{1, 3, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

// fakeClock advances only when the generator sleeps or a send stalls.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopLatenessAccounting(t *testing.T) {
	clk := &fakeClock{now: time.Unix(100, 0)}
	start := clk.now
	var dues []time.Duration
	late := openLoop(clk, 1000, 10*time.Millisecond, func(k int, due time.Time) {
		dues = append(dues, due.Sub(start))
		if k == 3 {
			clk.now = clk.now.Add(3500 * time.Microsecond) // a stalled send
		}
	})
	if len(late) != 10 || len(dues) != 10 {
		t.Fatalf("sent %d (lateness %d), want 10: an open loop never drops sends", len(dues), len(late))
	}
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	wantLate := []time.Duration{0, 0, 0, 0, ms(2.5), ms(1.5), ms(0.5), 0, 0, 0}
	for k := range late {
		if dues[k] != time.Duration(k)*time.Millisecond {
			t.Errorf("send %d due at %v, want %v", k, dues[k], time.Duration(k)*time.Millisecond)
		}
		if late[k] != wantLate[k] {
			t.Errorf("send %d lateness %v, want %v", k, late[k], wantLate[k])
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof-top.txt")
	if err != nil {
		t.Fatal(err)
	}
	h, err := parsePprofTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cache": 20, "machine": 25, "ecc": 5, "obsrv": 5, "campaign": 0}
	for pkg, v := range want {
		if math.Abs(h.pkg[pkg]-v) > 1e-9 {
			t.Errorf("host.%s = %g, want %g", pkg, h.pkg[pkg], v)
		}
	}
	if math.Abs(h.runtime-12.5) > 1e-9 || math.Abs(h.gc-20) > 1e-9 {
		t.Errorf("runtime %g gc %g, want 12.5 and 20", h.runtime, h.gc)
	}
	if _, err := parsePprofTop("no table here\n"); err == nil {
		t.Error("output without a table header parsed without error")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"safemem/internal/machine.(*Machine).Load":    "safemem/internal/machine",
		"safemem/internal/obsrv/flight.(*Recorder).X": "safemem/internal/obsrv/flight",
		"runtime.mallocgc":                            "runtime",
		"main.(*fleetSession).exec":                   "main",
		"encoding/json.(*decodeState).object":         "encoding/json",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCompareMetric(t *testing.T) {
	steady := func(base float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base * (1 + 0.01*float64(i%3))
		}
		return out
	}
	noisy := func(base float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base * (1 + 0.4*float64(i%2))
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higher         bool
		want           string
	}{
		{"faster", steady(100), steady(80), false, "gain"},
		{"slower beyond bound", steady(100), steady(130), false, "regression"},
		{"slower within bound", steady(100), steady(105), false, "within bound"},
		{"same", steady(100), steady(100), false, "within bound"},
		{"throughput up", steady(100), steady(120), true, "gain"},
		{"throughput down", steady(100), steady(70), true, "regression"},
		{"noisy overlap", noisy(100), noisy(90), false, "unresolved"},
		{"noisy but separated", noisy(100), noisy(40), false, "gain"},
	} {
		got := compareMetric(c.parent, c.change, 0.15, c.higher)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %q (wins %d/%d), want %q", c.name, got.verdict, got.wins, got.pairs, c.want)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json in step with the
// metrics and workloads this program reports; -update rewrites the lists.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	got, want := *spec, *spec
	want.Workloads = nil
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadSpec{Name: w.name, Why: w.why})
	}
	want.EndToEnd, want.PerLayer = endToEnd, perLayer
	if *update {
		if err := writeJSON(path, want); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s is out of step with the benchmark's lists; run go test -run %s -update", path, t.Name())
	}
	for _, w := range got.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
}

// TestWorkloadSmoke runs every workload for a moment on the default seed,
// so an API change in the simulator breaks this test rather than the next
// benchmark run, and checks outputs against the recorded digests.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run of every workload")
	}
	recorded := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res, err := runChild(w, defaultSeed, 0.02, false, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || len(res.Problems) != 0 {
			t.Errorf("%s: %d of %d ops failed; problems %v", w.name, res.Failed, res.Attempted, res.Problems)
		}
		if res.Digest != recorded[w.name] {
			t.Errorf("%s: output digest %s, recorded %s", w.name, res.Digest, recorded[w.name])
		}
		for _, m := range endToEnd {
			// The parent sets these two from every process of the run.
			if _, ok := res.Metrics[m.Name]; !ok && m.Name != "setup_s" && m.Name != "heap_live_mb" {
				t.Errorf("%s: metric %s missing", w.name, m.Name)
			}
		}
		if res.SetupS <= 0 || res.HeapMB <= 0 {
			t.Errorf("%s: set-up %gs, live heap %g MB; want both positive", w.name, res.SetupS, res.HeapMB)
		}
	}
}

// TestTracedSmoke runs one workload traced: spans, the trace file, the
// layer ledger and the CPU-profile breakdown.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke run")
	}
	w, _ := findWorkload("campaign")
	res, err := runChild(w, defaultSeed, 0.2, true, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("metric %s missing", m.Name)
		}
	}
	for _, name := range []string{"ledger.ecc.decode_clean_ns", "ledger.machine.new_ms", "span.op_us_p50", "span.campaign_execute_pct"} {
		if res.Metrics[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, res.Metrics[name])
		}
	}
}
