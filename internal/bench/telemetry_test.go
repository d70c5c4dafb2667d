package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"safemem/internal/apps"
	"safemem/internal/telemetry"
)

// TestRunTelemetry is the acceptance check for the observability layer: a
// buggy squid1 run under full SafeMem must produce a trace with spans from
// several distinct components and a metrics dump containing the
// detection-latency histogram.
func TestRunTelemetry(t *testing.T) {
	session := telemetry.NewSession(telemetry.Config{
		TraceEnabled:   true,
		SampleInterval: 2_400_000, // 1 simulated ms
	})
	Telemetry = session
	defer func() { Telemetry = nil }()

	res, err := Run("squid1", ToolSafeMemBoth, apps.Config{Seed: 42, Scale: 1, Buggy: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Registry == nil {
		t.Fatal("no registry on result")
	}
	if got := res.Registry.Run(); got != "squid1/safemem" {
		t.Fatalf("run label = %q", got)
	}

	comps := map[string]bool{}
	for _, ev := range res.Registry.Tracer().Events() {
		if ev.Phase == telemetry.PhaseBegin && ev.Component != "" {
			comps[ev.Component] = true
		}
	}
	if len(comps) < 4 {
		t.Fatalf("trace spans from %d components (%v), want >= 4", len(comps), comps)
	}

	var lat *telemetry.Histogram
	for _, h := range res.Registry.Histograms() {
		if h.Count() > 0 {
			lat = h
		}
	}
	if lat == nil {
		t.Fatal("no histogram observations recorded")
	}

	var buf bytes.Buffer
	if err := session.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, want := range []string{
		"safemem_safemem_detection_latency_cycles_bucket",
		"safemem_cache_hits",
		"safemem_memctrl_corrected_single",
		"safemem_physmem_size_bytes",
		"safemem_physmem_resident_bytes",
		`run="squid1/safemem"`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
	// DRAM is sparse: the run wrote some frames, far from all of them.
	size, resident := metricValue(t, dump, "safemem_physmem_size_bytes"), metricValue(t, dump, "safemem_physmem_resident_bytes")
	if resident <= 0 || resident >= size {
		t.Errorf("physmem resident_bytes = %g, want within (0, size_bytes = %g)", resident, size)
	}

	if len(res.Registry.Samples()) == 0 {
		t.Error("sampler recorded no snapshots")
	}

	var trace bytes.Buffer
	if err := session.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if trace.Len() == 0 {
		t.Fatal("empty Chrome trace")
	}
}

// metricValue returns the value of the first sample of the named metric in
// a Prometheus text dump.
func metricValue(t *testing.T, dump, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(dump, "\n") {
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metrics dump has no %s sample", name)
	return 0
}

// TestRunWithoutTelemetry checks runs stay quiet (no sampling, no tracing)
// when no session is installed, while stats still flow into the result.
func TestRunWithoutTelemetry(t *testing.T) {
	res, err := Run("gzip", ToolSafeMemBoth, apps.Config{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Registry == nil {
		t.Fatal("no registry on result")
	}
	if n := len(res.Registry.Tracer().Events()); n != 0 {
		t.Fatalf("quiet registry recorded %d trace events", n)
	}
	if len(res.Registry.Samples()) != 0 {
		t.Fatal("quiet registry sampled")
	}
	if res.Cache.Hits+res.Cache.Misses == 0 {
		t.Fatal("cache stats not captured")
	}
	if res.Ctrl.LineReads == 0 {
		t.Fatal("controller stats not captured")
	}
}
