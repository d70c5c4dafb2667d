package obsrv

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"safemem/internal/obsrv/flight"
	"safemem/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// testServer starts a server on an ephemeral port with a private recorder
// and registry, pre-populated with known metrics.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// scrapeRegistry builds the fixed registry behind the golden scrape.
func scrapeRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry("campaign", telemetry.Config{})
	reg.Counter("campaign", "scenarios_done").Add(17)
	reg.Counter("campaign", "live_violations").Add(1)
	reg.Gauge("campaign", "shard0_scenarios_done").Set(9)
	reg.Gauge("campaign", "shard1_scenarios_done").Set(8)
	reg.Gauge("campaign", "scenarios_per_sec").Set(4.5)
	h := reg.Histogram("campaign", "detection_latency_cycles", []float64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)
	// Names that need sanitising ("-" → "_") pin promName escaping.
	reg.Counter("fault-model", "plants.total").Add(3)
	return reg
}

func TestMetricsGolden(t *testing.T) {
	rec := flight.New(16)
	rec.Emit(flight.KindVerdict, "campaign", 0, "seed 1")
	s := testServer(t, Config{Registry: scrapeRegistry(), Recorder: rec})

	status, body, hdr := get(t, s.URL()+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if ct := hdr.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, telemetry.PromContentType)
	}

	// The pool gauges are process-global — their values depend on
	// what other tests ran before this one — so the golden pins everything
	// else and TestMetricsPoolGauges pins their shape.
	body = stripPoolMetrics(body)

	const goldenPath = "testdata/metrics.golden"
	if *update {
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if body != string(want) {
		t.Errorf("scrape differs from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, body, want)
	}
}

// stripPoolMetrics drops the safemem_pool_* lines (TYPE headers included)
// from a scrape body.
func stripPoolMetrics(body string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		if strings.Contains(line, "safemem_pool_") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestMetricsPoolGauges pins the shape of the machine-pool telemetry: each
// counter family is one unlabelled series of the one process-wide pool, and
// the retired snapshot-store families are gone.
func TestMetricsPoolGauges(t *testing.T) {
	s := testServer(t, Config{Recorder: flight.New(4)})
	_, body, _ := get(t, s.URL()+"/metrics")
	for _, name := range []string{"pool_released", "pool_dropped", "pool_built"} {
		if !strings.Contains(body, fmt.Sprintf("# TYPE safemem_%s gauge\n", name)) {
			t.Errorf("missing TYPE line for safemem_%s", name)
		}
		if n := strings.Count(body, "\nsafemem_"+name+" "); n != 1 {
			t.Errorf("%d unlabelled safemem_%s samples, want 1", n, name)
		}
		if strings.Contains(body, "safemem_"+name+"{") {
			t.Errorf("safemem_%s carries a label", name)
		}
	}
	if strings.Contains(body, "safemem_snapshot_") {
		t.Error("scrape still carries safemem_snapshot_* gauges")
	}
}

func TestMetricsEscaping(t *testing.T) {
	reg := telemetry.NewRegistry(`run"with\quotes`, telemetry.Config{})
	reg.Counter("weird component", "name-with.dots").Add(1)
	s := testServer(t, Config{Registry: reg, Recorder: flight.New(4)})
	_, body, _ := get(t, s.URL()+"/metrics")
	if !strings.Contains(body, "safemem_weird_component_name_with_dots") {
		t.Errorf("metric name not sanitised:\n%s", body)
	}
	// The run label must be a valid quoted Prometheus string.
	if !strings.Contains(body, `run="run\"with\\quotes"`) {
		t.Errorf("run label not escaped:\n%s", body)
	}
}

func TestMetricsConcurrentScrape(t *testing.T) {
	reg := telemetry.NewRegistry("stress", telemetry.Config{})
	ctr := reg.Counter("comp", "n")
	s := testServer(t, Config{Registry: reg, Recorder: flight.New(64)})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, body, _ := get(t, s.URL()+"/metrics")
				if status != http.StatusOK {
					t.Errorf("scrape status %d", status)
					return
				}
				if !strings.Contains(body, "safemem_comp_n") {
					t.Errorf("partial scrape:\n%s", body)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		ctr.Inc()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestHealthzFlipsOnDegradation(t *testing.T) {
	rec := flight.New(16)
	s := testServer(t, Config{Recorder: rec})
	if status, body, _ := get(t, s.URL()+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthy server: status %d (%s)", status, body)
	}
	// Forced degradation: SafeMem gives up a capability.
	rec.Emit(flight.KindDegraded, "safemem", 1000, "quarantine line 0x40")
	status, body, _ := get(t, s.URL()+"/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("degraded server: status %d, want 503", status)
	}
	if !strings.Contains(body, "degraded") {
		t.Errorf("body %q", body)
	}
}

func TestHealthzFlipsOnDataLoss(t *testing.T) {
	rec := flight.New(16)
	s := testServer(t, Config{Recorder: rec})
	rec.Emit(flight.KindDataLoss, "kernel", 1000, "line 0x80")
	if status, _, _ := get(t, s.URL()+"/healthz"); status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", status)
	}
}

func TestReadyzRetirementBudget(t *testing.T) {
	rec := flight.New(64)
	s := testServer(t, Config{Recorder: rec, RetireBudget: 3})
	if status, _, _ := get(t, s.URL()+"/readyz"); status != http.StatusOK {
		t.Fatal("fresh server not ready")
	}
	for i := 0; i < 3; i++ {
		rec.Emit(flight.KindPageRetired, "kernel", 0, "")
	}
	// At the budget: still ready.
	if status, _, _ := get(t, s.URL()+"/readyz"); status != http.StatusOK {
		t.Fatal("server unready at budget")
	}
	rec.Emit(flight.KindPageRetired, "kernel", 0, "")
	status, body, _ := get(t, s.URL()+"/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d over budget, want 503", status)
	}
	if !strings.Contains(body, "budget") {
		t.Errorf("body %q", body)
	}
	// Health is orthogonal: retirements alone don't degrade monitoring.
	if status, _, _ := get(t, s.URL()+"/healthz"); status != http.StatusOK {
		t.Error("healthz flipped on retirements")
	}
}

func TestBuildinfoEndpoint(t *testing.T) {
	s := testServer(t, Config{Recorder: flight.New(4)})
	status, body, hdr := get(t, s.URL()+"/buildinfo")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{`"module"`, `"go_version"`} {
		if !strings.Contains(body, want) {
			t.Errorf("buildinfo %q missing %q", body, want)
		}
	}
}

func TestPprofEndpoint(t *testing.T) {
	s := testServer(t, Config{Recorder: flight.New(4)})
	status, body, _ := get(t, s.URL()+"/debug/pprof/cmdline")
	if status != http.StatusOK || len(body) == 0 {
		t.Fatalf("pprof cmdline: status %d, %d bytes", status, len(body))
	}
}

func TestEventsStream(t *testing.T) {
	rec := flight.New(64)
	rec.Emit(flight.KindShardStart, "campaign", 0, "shard 0", flight.F("shard", 0))
	s := testServer(t, Config{Recorder: rec, ReplayLastN: 8})

	resp, err := http.Get(s.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	expect := func(substr string) string {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("stream closed waiting for %q", substr)
				}
				if strings.Contains(line, substr) {
					return line
				}
			case <-deadline:
				t.Fatalf("timeout waiting for %q", substr)
			}
		}
	}

	// The pre-connect event is replayed…
	expect("event: shard-start")
	expect(`"shard":0`)
	// …and live events follow.
	rec.Emit(flight.KindViolation, "campaign", 999, "missed plant", flight.F("seed", 42))
	expect("event: violation")
	data := expect(`"seed":42`)
	if !strings.HasPrefix(data, "data: ") {
		t.Errorf("payload line %q", data)
	}
}
