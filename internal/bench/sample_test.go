package bench

import (
	"reflect"
	"testing"

	"safemem/internal/apps"
)

// TestSampleRateOneEquivalence is the differential golden for the sampling
// tool's degenerate end: at rate 1 every allocation is admitted, and the
// sampling draw is host-side with zero simulated cost, so each Table 3 app
// must produce bit-for-bit the full SafeMem run — cycles, instruction
// count, machine and heap counters, reports and detector stats.
func TestSampleRateOneEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full table workloads twice")
	}
	for _, buggy := range []bool{false, true} {
		cfg := apps.Config{Seed: 42, Buggy: buggy}
		for _, app := range apps.All() {
			full, err := Run(app.Name, ToolSafeMemBoth, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sampled, err := RunSpec(Spec{App: app.Name, Tool: ToolSample, Cfg: cfg, SampleRate: 1})
			if err != nil {
				t.Fatal(err)
			}
			if full.Err != nil || sampled.Err != nil {
				t.Fatalf("%s buggy=%v: run errors %v / %v", app.Name, buggy, full.Err, sampled.Err)
			}
			if full.Cycles != sampled.Cycles || full.Instrs != sampled.Instrs {
				t.Errorf("%s buggy=%v: rate-1 timing diverges: %v/%d vs %v/%d",
					app.Name, buggy, full.Cycles, full.Instrs, sampled.Cycles, sampled.Instrs)
			}
			if full.Machine != sampled.Machine || full.Heap != sampled.Heap ||
				full.Cache != sampled.Cache || full.Ctrl != sampled.Ctrl {
				t.Errorf("%s buggy=%v: rate-1 machine counters diverge", app.Name, buggy)
			}
			if !reflect.DeepEqual(full.SafeMem, sampled.SafeMem) {
				t.Errorf("%s buggy=%v: rate-1 reports diverge:\nfull:    %v\nsampled: %v",
					app.Name, buggy, full.SafeMem, sampled.SafeMem)
			}
			if full.SafeMemStats != sampled.SafeMemStats {
				t.Errorf("%s buggy=%v: rate-1 detector stats diverge:\nfull:    %+v\nsampled: %+v",
					app.Name, buggy, full.SafeMemStats, sampled.SafeMemStats)
			}
			if ss := sampled.SampleStats; ss.Unsampled != 0 || ss.Sampled != full.SafeMemStats.Allocs {
				t.Errorf("%s buggy=%v: rate-1 split %d/%d, want %d/0",
					app.Name, buggy, ss.Sampled, ss.Unsampled, full.SafeMemStats.Allocs)
			}
		}
	}
}

// TestSampleOverheadShrinks pins the point of the tool: sampling at 1/512
// must cost materially less than full SafeMem on every app.
func TestSampleOverheadShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full table workloads")
	}
	rows, err := RunSampleTable(apps.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sparse := r.RatePct[len(r.RatePct)-1]
		if r.SafeMemPct > 1 && sparse > r.SafeMemPct/2 {
			t.Errorf("%s: overhead at N=512 is %.1f%%, not well under full SafeMem's %.1f%%",
				r.App, sparse, r.SafeMemPct)
		}
		if sparse < -0.5 {
			t.Errorf("%s: negative overhead %.1f%% at N=512 — baseline mismatch", r.App, sparse)
		}
	}
}
