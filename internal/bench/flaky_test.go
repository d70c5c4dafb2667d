package bench

import (
	"reflect"
	"testing"

	"safemem/internal/apps"
	"safemem/internal/kernel"
	"safemem/internal/machine"
	"safemem/internal/simtime"
)

// flakyDigest is what TestFlakyDIMMRun compares across runs: the simulated
// timing, every report string and the kernel's survival counters.
type flakyDigest struct {
	cycles     simtime.Cycles
	instrs     uint64
	reports    []string
	resilience kernel.ResilienceStats
	events     uint64
}

// TestFlakyDIMMRun pins bench's flaky-DIMM path (faultmodel.StartFlaky
// behind Spec.FaultRate): a buggy-input run on failing hardware with
// storms and page retirement sees fault events, survives them, and is
// deterministic — two pooled runs and a Reference-machine run agree
// exactly, reports included. The sample row is
// a combination the harness could not express before Spec.
func TestFlakyDIMMRun(t *testing.T) {
	for _, tool := range []Tool{ToolSafeMemBoth, ToolSample} {
		t.Run(tool.String(), func(t *testing.T) {
			spec := Spec{App: "gzip", Tool: tool, Cfg: apps.Config{Seed: 42, Scale: 1, Buggy: true},
				FaultRate: 40, Storm: true, Retire: true}
			run := func(mcfg machine.Config) flakyDigest {
				t.Helper()
				s := spec
				s.Machine = mcfg
				res, err := RunSpec(s)
				if err != nil {
					t.Fatal(err)
				}
				if res.Err != nil {
					t.Fatalf("run failed on flaky DIMMs: %v", res.Err)
				}
				d := flakyDigest{cycles: res.Cycles, instrs: res.Instrs,
					resilience: res.Resilience, events: res.FaultEvents}
				for _, r := range res.SafeMem {
					d.reports = append(d.reports, r.String())
				}
				return d
			}
			first := run(machine.Config{})
			t.Logf("%d fault events, %d reports, %+v", first.events, len(first.reports), first.resilience)
			if first.events == 0 {
				t.Fatal("no fault events at fault rate 40")
			}
			if again := run(machine.Config{}); !reflect.DeepEqual(first, again) {
				t.Errorf("pooled reruns diverge:\nfirst: %+v\nagain: %+v", first, again)
			}
			if ref := run(machine.Config{Reference: true}); !reflect.DeepEqual(first, ref) {
				t.Errorf("Reference machine diverges:\npooled:    %+v\nreference: %+v", first, ref)
			}
		})
	}
}
