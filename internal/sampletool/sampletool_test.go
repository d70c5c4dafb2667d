package sampletool

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	safemem "safemem/internal/core"
	"safemem/internal/heap"
	"safemem/internal/machine"
	"safemem/internal/simtime"
	"safemem/internal/stats"
	"safemem/internal/telemetry"
	"safemem/internal/vm"
)

type testRig struct {
	m     *machine.Machine
	alloc *heap.Allocator
	tool  *Tool
}

func newRig(t *testing.T, opts Options) *testRig {
	t.Helper()
	m, err := machine.New(machine.Config{MemBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return attachRig(t, m, opts)
}

func attachRig(t *testing.T, m *machine.Machine, opts Options) *testRig {
	t.Helper()
	alloc, err := heap.New(m, safemem.HeapOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	tool, err := Attach(m, alloc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{m: m, alloc: alloc, tool: tool}
}

func (r *testRig) malloc(t *testing.T, size uint64) vm.VAddr {
	t.Helper()
	p, err := r.alloc.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// overflowAll allocates n 64-byte blocks and writes one byte past each
// block's rounded size — into the suffix guard line when the block is
// sampled, into inert padding when it is not. It returns the block
// addresses in allocation order.
func (r *testRig) overflowAll(t *testing.T, n int) []vm.VAddr {
	t.Helper()
	addrs := make([]vm.VAddr, n)
	for i := range addrs {
		addrs[i] = r.malloc(t, 64)
	}
	for _, p := range addrs {
		r.m.Store8(p+64, 0xee)
	}
	return addrs
}

// TestWithDefaults pins the harness defaults: an unset rate becomes
// DefaultRate and an unset seed derives from the workload seed, while
// explicit values pass through untouched.
func TestWithDefaults(t *testing.T) {
	d := Options{}.WithDefaults(7)
	if d.Rate != DefaultRate || d.Seed == 0 || d.Seed == 7 {
		t.Fatalf("defaults = rate %d seed %#x, want rate %d and a salted seed", d.Rate, d.Seed, DefaultRate)
	}
	if d2 := (Options{}).WithDefaults(8); d2.Seed == d.Seed {
		t.Fatal("derived seed ignores the workload seed")
	}
	if e := (Options{Rate: 3, Seed: 99}).WithDefaults(7); e.Rate != 3 || e.Seed != 99 {
		t.Fatalf("explicit options overridden: rate %d seed %d", e.Rate, e.Seed)
	}
}

func TestSplitDeterministic(t *testing.T) {
	for _, rate := range []int{1, 8, 64} {
		a := newRig(t, DefaultOptions(rate, 99))
		b := newRig(t, DefaultOptions(rate, 99))
		addrsA := a.overflowAll(t, 200)
		addrsB := b.overflowAll(t, 200)
		if !reflect.DeepEqual(addrsA, addrsB) {
			t.Fatalf("rate %d: allocation sequences diverged", rate)
		}
		for i, p := range addrsA {
			if a.tool.Sampled(p) != b.tool.Sampled(p) {
				t.Fatalf("rate %d: decision for alloc %d differs between equal-seed tools", rate, i)
			}
		}
		if sa, sb := a.tool.Stats(), b.tool.Stats(); sa != sb {
			t.Errorf("rate %d: stats diverged: %+v vs %+v", rate, sa, sb)
		}
		if !reflect.DeepEqual(a.tool.Reports(), b.tool.Reports()) {
			t.Errorf("rate %d: reports diverged", rate)
		}
	}
}

func TestRateOneSamplesEverything(t *testing.T) {
	r := newRig(t, DefaultOptions(1, 7))
	addrs := r.overflowAll(t, 50)
	s := r.tool.Stats()
	if s.Sampled != 50 || s.Unsampled != 0 {
		t.Fatalf("rate-1 split = %d/%d, want 50/0", s.Sampled, s.Unsampled)
	}
	for _, p := range addrs {
		if !r.tool.Sampled(p) {
			t.Fatalf("rate-1 left %#x unsampled", uint64(p))
		}
	}
	if got := len(r.tool.Reports()); got != 50 {
		t.Fatalf("rate-1 overflow sweep reported %d bugs, want 50", got)
	}
}

// TestDetectionProbabilityBinomial is the single-process statistical
// property: across T independent allocations each overflowed once, the
// number of detections is Binomial(T, 1/N). Three fixed seeds per rate;
// the exact two-sided binomial test must not reject at alpha 1e-4. A
// detection here is exactly a sampled allocation — the test also pins that
// every sampled overflow is reported and no unsampled one is.
func TestDetectionProbabilityBinomial(t *testing.T) {
	const trials = 400
	for _, rate := range []int{8, 64} {
		for _, seed := range []uint64{1, 2, 3} {
			r := newRig(t, DefaultOptions(rate, seed))
			r.overflowAll(t, trials)
			s := r.tool.Stats()
			detected := len(r.tool.Reports())
			if uint64(detected) != s.Sampled {
				t.Fatalf("rate %d seed %d: %d reports for %d sampled overflows",
					rate, seed, detected, s.Sampled)
			}
			if pv := stats.BinomTwoSidedP(trials, detected, 1/float64(rate)); pv < 1e-4 {
				t.Errorf("rate %d seed %d: %d/%d detections rejects p=1/%d (p-value %.2g)",
					rate, seed, detected, trials, rate, pv)
			}
			if err := r.tool.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFleetAggregateDetection is the fleet statistical property: k
// independently seeded processes running the same workload detect a given
// bug with probability 1-(1-1/N)^k. Every rig allocates the identical
// sequence, so per-allocation outcomes line up by address; the union over
// fleet prefixes is tested against the analytic aggregate.
func TestFleetAggregateDetection(t *testing.T) {
	const (
		rate   = 8
		trials = 250
		fleet  = 4
	)
	detected := make([]map[vm.VAddr]bool, fleet)
	var addrs []vm.VAddr
	for j := 0; j < fleet; j++ {
		r := newRig(t, DefaultOptions(rate, 1000+uint64(j)))
		seq := r.overflowAll(t, trials)
		if j == 0 {
			addrs = seq
		} else if !reflect.DeepEqual(addrs, seq) {
			t.Fatal("fleet members allocated different sequences")
		}
		detected[j] = make(map[vm.VAddr]bool)
		for _, rep := range r.tool.Reports() {
			detected[j][rep.BufferAddr] = true
		}
	}
	for _, k := range []int{2, 4} {
		hits := 0
		for _, p := range addrs {
			for j := 0; j < k; j++ {
				if detected[j][p] {
					hits++
					break
				}
			}
		}
		analytic := 1 - pow(1-1/float64(rate), k)
		if pv := stats.BinomTwoSidedP(trials, hits, analytic); pv < 1e-4 {
			t.Errorf("fleet %d: %d/%d detections rejects analytic %.3f (p-value %.2g)",
				k, hits, trials, analytic, pv)
		}
	}
}

func pow(x float64, n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= x
	}
	return v
}

// TestUnsampledReuseOfWatchedExtent pins the stale-watch hazard: a sampled
// block is freed (arming a freed-memory watch over its extent), then an
// unsampled allocation reuses that extent. The stale watch must be
// disarmed, or the new tenant's ordinary accesses would report phantom
// use-after-free.
func TestUnsampledReuseOfWatchedExtent(t *testing.T) {
	// Find a seed whose first draw samples and second does not, so the
	// free/realloc pair lands on opposite sides of the split.
	seed := uint64(0)
	for {
		r := rng{state: seed}
		if r.next()%2 == 0 && r.next()%2 != 0 {
			break
		}
		seed++
	}
	r := newRig(t, DefaultOptions(2, seed))
	a := r.malloc(t, 64)
	if !r.tool.Sampled(a) {
		t.Fatal("seed search broke: first allocation unsampled")
	}
	if err := r.alloc.Free(a); err != nil {
		t.Fatal(err)
	}
	b := r.malloc(t, 64)
	if b != a {
		t.Fatalf("allocator no longer reuses the freed extent (%#x vs %#x); rework this test", uint64(b), uint64(a))
	}
	if r.tool.Sampled(b) {
		t.Fatal("seed search broke: second allocation sampled")
	}
	if s := r.tool.Stats(); s.StaleUnwatches == 0 {
		t.Error("reused extent kept its freed-memory watch armed")
	}
	// The new tenant must be able to use its whole extent silently.
	r.m.Store8(b, 0x01)
	r.m.Store8(b+63, 0x02)
	r.m.Store8(b+64, 0x03) // one past: inert padding for an unsampled block
	if got := r.tool.Reports(); len(got) != 0 {
		t.Fatalf("unsampled tenant tripped %d reports: %v", len(got), got)
	}
	if err := r.tool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorsAndShutdown(t *testing.T) {
	r := newRig(t, DefaultOptions(0, 5)) // rate 0 must normalise to 1
	if got := r.tool.Options().Rate; got != 1 {
		t.Errorf("rate 0 normalised to %d, want 1", got)
	}
	if r.tool.Inner() == nil {
		t.Fatal("no inner tool")
	}
	p := r.malloc(t, 64)
	if err := r.alloc.Free(p); err != nil {
		t.Fatal(err)
	}
	r.malloc(t, 64)
	r.tool.Shutdown()
	// Shutdown disarms every inner watch; the sampler's bookkeeping must
	// still be coherent afterwards.
	if err := r.tool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := r.tool.SafeMemStats(); st.Allocs != 2 {
		t.Errorf("inner saw %d allocs, want 2", st.Allocs)
	}
}

func TestTelemetryGauges(t *testing.T) {
	reg := telemetry.NewRegistry("sampletest", telemetry.Config{})
	m, err := machine.New(machine.Config{MemBytes: 16 << 20, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := attachRig(t, m, DefaultOptions(2, 3))
	r.overflowAll(t, 20)
	var buf bytes.Buffer
	if err := m.Telemetry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"sampled_allocs", "unsampled_allocs", "pool_live", "pool_peak",
		"stale_unwatches", "detections",
	} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("telemetry export lacks the %s gauge", metric)
		}
	}
}

func TestCheckInvariantsCatchesCorruptPool(t *testing.T) {
	r := newRig(t, DefaultOptions(8, 1))
	r.malloc(t, 64)
	if err := r.tool.CheckInvariants(); err != nil {
		t.Fatalf("clean tool fails invariants: %v", err)
	}
	r.tool.pool[vm.VAddr(0xdead000)] = struct{}{}
	if err := r.tool.CheckInvariants(); err == nil {
		t.Fatal("pool entry with no live block went unnoticed")
	}
}

func TestCheckInvariantsCatchesWatchedUnsampled(t *testing.T) {
	r := newRig(t, DefaultOptions(1, 1)) // rate 1: everything sampled+watched
	p := r.malloc(t, 64)
	// Forget the pool entry: the block is now live, unsampled by the
	// sampler's account, yet still carries its guard watches.
	delete(r.tool.pool, p)
	if err := r.tool.CheckInvariants(); err == nil {
		t.Fatal("watched-but-unsampled block went unnoticed")
	}
}

// sampleDigest is every simulated observable of a scripted sampler run.
type sampleDigest struct {
	cycles  simtime.Cycles
	stats   Stats
	sm      safemem.Stats
	reports []safemem.BugReport
}

// runJob drives a deterministic mixed workload — allocations, overflows,
// frees with reuse — and returns its digest without shutting the tool
// down, so the machine is left carrying live watches and a non-empty pool.
func runJob(t *testing.T, m *machine.Machine, seed uint64) sampleDigest {
	t.Helper()
	r := attachRig(t, m, DefaultOptions(4, seed))
	var live []vm.VAddr
	for i := 0; i < 60; i++ {
		p := r.malloc(t, uint64(64+(i%3)*64))
		r.m.Store8(p, byte(i))
		if i%4 == 3 {
			r.m.Store8(p+vm.VAddr(64+(i%3)*64), 0xee) // guard if sampled
		}
		live = append(live, p)
		if i%5 == 4 {
			if err := r.alloc.Free(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
	}
	if err := r.tool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return sampleDigest{
		cycles:  r.m.Clock.Now(),
		stats:   r.tool.Stats(),
		sm:      r.tool.SafeMemStats(),
		reports: r.tool.Reports(),
	}
}

// TestRecycleNoSampleInheritance pins the pooling contract at the unit
// level (the campaign-level pin is TestRecycleEquivalence): a machine that
// just ran a sampling job — live pool, armed guard and freed-memory
// watches, no shutdown — must behave bit-for-bit like a fresh machine
// after Recycle.
func TestRecycleNoSampleInheritance(t *testing.T) {
	recycled, err := machine.New(machine.Config{MemBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, recycled, 42) // dirty it: watches + pool left behind
	recycled.Recycle()
	got := runJob(t, recycled, 1234)

	fresh, err := machine.New(machine.Config{MemBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want := runJob(t, fresh, 1234)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled machine inherits sampling state:\nrecycled: %+v\nfresh:    %+v", got, want)
	}
}
