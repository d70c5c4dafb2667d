package bench

import (
	"testing"

	"safemem/internal/apps"
	"safemem/internal/machine"
	"safemem/internal/telemetry"
)

// TestPanickedMachineNeverRepooled pins the bench-side crash-safety
// contract: a run whose simulated program panics out of Machine.Run into a
// recovering caller must drop its machine — sync.Pool.Put never sees a
// machine in an unknown mid-run state.
func TestPanickedMachineNeverRepooled(t *testing.T) {
	runHook = func() { panic("chaos: injected worker panic") }
	defer func() { runHook = nil }()

	r0, d0 := PoolStats()
	func() {
		defer func() {
			if v := recover(); v == nil {
				t.Fatal("injected panic did not propagate out of bench.Run")
			}
		}()
		Run("ypserv1", ToolNone, apps.Config{Seed: 1, Scale: 1})
	}()
	r1, d1 := PoolStats()
	if r1 != r0 {
		t.Fatalf("panicked run released %d machine(s) into the pool", r1-r0)
	}
	if d1-d0 != 1 {
		t.Fatalf("panicked run dropped %d machine(s), want exactly 1", d1-d0)
	}
}

// TestCleanRunRepooled is the counter-positive: a normal run recycles its
// machine exactly once.
func TestCleanRunRepooled(t *testing.T) {
	r0, d0 := PoolStats()
	res, err := Run("ypserv1", ToolNone, apps.Config{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("clean run terminated abnormally: %v", res.Err)
	}
	r1, d1 := PoolStats()
	if r1-r0 != 1 {
		t.Fatalf("clean run released %d machine(s), want 1", r1-r0)
	}
	if d1 != d0 {
		t.Fatalf("clean run dropped %d machine(s), want 0", d1-d0)
	}
}

// TestTelemetryRunNotPooled pins that a run carrying its own telemetry
// registry never touches the pools: the registry is that run's output, and
// Recycle keeps a machine's registry, so the machine must not be reused.
func TestTelemetryRunNotPooled(t *testing.T) {
	mcfg := machine.DefaultConfig()
	mcfg.Telemetry = telemetry.NewRegistry("ypserv1/none", telemetry.Config{})
	r0, d0 := PoolStats()
	b0 := PoolBuilt()
	res, err := RunSpec(Spec{App: "ypserv1", Tool: ToolNone, Cfg: apps.Config{Seed: 1, Scale: 1}, Machine: mcfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Registry != mcfg.Telemetry {
		t.Fatal("run did not report into its own registry")
	}
	r1, d1 := PoolStats()
	if r1 != r0 || d1 != d0 || PoolBuilt() != b0 {
		t.Fatalf("telemetry run moved the pool counters: released %d, dropped %d, built %d",
			r1-r0, d1-d0, PoolBuilt()-b0)
	}
}
