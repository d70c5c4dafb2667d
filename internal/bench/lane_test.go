package bench

import (
	"testing"

	"safemem/internal/apps"
	"safemem/internal/machine"
	"safemem/internal/telemetry"
)

// laneCounts is one run's batch-lane counters as the machine exports them
// (the machine/batch_runs, batch_fast_ops and batch_slow_ops gauges).
type laneCounts struct{ runs, fast, slow uint64 }

// TestAppLaneCountsPinned pins, for every app under ToolNone and
// ToolSafeMemBoth, how many batched runs the machine took and how many
// accesses they served in the lane and on the per-access path. The lane is
// what makes an app cheap on the host, so a change that pushes one app's
// idiom (gzip's CompareRun, tar's byte runs) off the lane shows here as a
// changed row, deterministically, where a host-timed per-app row would be
// lost in host noise. A deliberate lane change updates the table.
func TestAppLaneCountsPinned(t *testing.T) {
	want := map[string][2]laneCounts{ // [ToolNone, ToolSafeMemBoth]
		"ypserv1": {{13318, 5178213, 657}, {13318, 5178251, 619}},
		"proftpd": {{1726, 5675953, 719}, {1726, 5673548, 3124}},
		"squid1":  {{5424, 9312966, 1018}, {5424, 9310065, 3919}},
		"ypserv2": {{13318, 5178213, 657}, {13318, 5178251, 619}},
		"gzip":    {{14906, 1226628, 776}, {14906, 1226628, 776}},
		"tar":     {{10128, 1305276, 7936}, {10128, 1306544, 6668}},
		"squid2":  {{4116, 7718149, 923}, {4116, 7718120, 952}},
	}
	tools := [2]Tool{ToolNone, ToolSafeMemBoth}
	for _, app := range apps.All() {
		for i, tool := range tools {
			mcfg := machine.DefaultConfig()
			mcfg.Telemetry = telemetry.NewRegistry("", telemetry.Config{})
			res, err := RunSpec(Spec{App: app.Name, Tool: tool, Cfg: apps.Config{Seed: 42}, Machine: mcfg})
			if err != nil {
				t.Fatalf("%s/%v: %v", app.Name, tool, err)
			}
			if res.Err != nil {
				t.Fatalf("%s/%v run: %v", app.Name, tool, res.Err)
			}
			var got laneCounts
			for _, v := range res.Registry.Snapshot() {
				if v.Component != "machine" {
					continue
				}
				switch v.Name {
				case "batch_runs":
					got.runs = uint64(v.Value)
				case "batch_fast_ops":
					got.fast = uint64(v.Value)
				case "batch_slow_ops":
					got.slow = uint64(v.Value)
				}
			}
			if w := want[app.Name][i]; got != w {
				t.Errorf("%s/%v lane (runs, fast, slow) = %v, want %v", app.Name, tool, got, w)
			}
		}
	}
}
