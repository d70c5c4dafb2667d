package telemetry

import (
	"io"
	"sync"
	"testing"

	"safemem/internal/simtime"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry("", Config{})
	c := r.Counter("comp", "events")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("comp", "events") != c {
		t.Fatal("Counter not idempotent")
	}

	g := r.Gauge("comp", "level")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}

	h := r.Histogram("comp", "lat", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	bounds, counts, sum, count := h.Snapshot()
	if len(bounds) != 2 || len(counts) != 3 {
		t.Fatalf("snapshot shape: bounds=%v counts=%v", bounds, counts)
	}
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if sum != 555 || count != 3 {
		t.Fatalf("sum=%v count=%v", sum, count)
	}
}

// TestLookupExistingAllocFree pins that finding an existing metric
// allocates nothing: components look their metrics up again on every
// attach to a recycled machine.
func TestLookupExistingAllocFree(t *testing.T) {
	r := NewRegistry("", Config{})
	comp, name := "comp", "events"
	r.Counter(comp, name)
	r.Gauge(comp, name)
	r.Histogram(comp, name, LatencyBuckets)
	if avg := testing.AllocsPerRun(100, func() {
		r.Counter(comp, name)
		r.Gauge(comp, name)
		r.Histogram(comp, name, LatencyBuckets)
	}); avg != 0 {
		t.Fatalf("looking up existing metrics allocates %.1f objects, want 0", avg)
	}
}

func TestSnapshotIncludesSources(t *testing.T) {
	r := NewRegistry("", Config{})
	r.Counter("b", "z").Inc()
	hits := 0
	r.RegisterSource("a", func(emit func(string, float64)) {
		hits++
		emit("hits", 7)
	})
	vals := r.Snapshot()
	if hits != 1 {
		t.Fatalf("source called %d times", hits)
	}
	if len(vals) != 2 {
		t.Fatalf("snapshot = %+v", vals)
	}
	// Sorted by component then name: a/hits before b/z.
	if vals[0].Component != "a" || vals[0].Name != "hits" || vals[0].Value != 7 {
		t.Fatalf("vals[0] = %+v", vals[0])
	}
	if vals[1].Component != "b" || vals[1].Name != "z" || vals[1].Value != 1 {
		t.Fatalf("vals[1] = %+v", vals[1])
	}
}

func TestSamplerSnapshotsOnClock(t *testing.T) {
	r := NewRegistry("", Config{SampleInterval: 100})
	var clock simtime.Clock
	g := r.Gauge("comp", "v")
	r.AttachClock(&clock)

	g.Set(1)
	clock.Advance(150) // crosses 100: one sample at t=150
	g.Set(2)
	clock.Advance(150) // crosses 250: one sample at t=300
	samples := r.Samples()
	if len(samples) != 2 {
		t.Fatalf("samples = %+v", samples)
	}
	if samples[0].Time != 150 || samples[0].Value != 1 {
		t.Fatalf("samples[0] = %+v", samples[0])
	}
	if samples[1].Time != 300 || samples[1].Value != 2 {
		t.Fatalf("samples[1] = %+v", samples[1])
	}

	// Finish takes a final sample and stops the sampler.
	r.Finish()
	n := len(r.Samples())
	if n != 3 {
		t.Fatalf("after Finish: %d samples", n)
	}
	clock.Advance(10_000)
	if len(r.Samples()) != n {
		t.Fatal("sampler still firing after Finish")
	}
	r.Finish() // idempotent
	if len(r.Samples()) != n {
		t.Fatal("second Finish sampled again")
	}
}

// TestConcurrentMetricWrites exercises the concurrency contract: metrics the
// registry owns may be written from multiple goroutines while another dumps
// the registry (a registry without sources can be exported off-thread).
func TestConcurrentMetricWrites(t *testing.T) {
	r := NewRegistry("race", Config{})
	c := r.Counter("comp", "n")
	h := r.Histogram("comp", "lat", LatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter = %d", c.Value())
	}
	if h.Count() != 4000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
}
