package inject

import (
	"testing"

	"safemem/internal/machine"
)

// TestPendingPerGroupOnOneFrame plants on two groups of one frame and
// resolves one group with a correctable event: only that group's plant is
// consumed, and the other stays pending on the frame's chain.
func TestPendingPerGroupOnOneFrame(t *testing.T) {
	m := machine.MustNew(machine.Config{MemBytes: 4 << 20})
	if err := m.Kern.MapPages(0x40000, 1); err != nil {
		t.Fatal(err)
	}
	in := New(m, Config{Seed: 3})
	if n := in.pending.Leaves(); n != 0 {
		t.Fatalf("fresh injector holds %d pending-table leaves, want 0", n)
	}
	m.Store64(0x40000, 1)
	m.Store64(0x40040, 2)
	m.Cache.FlushAll()
	if !in.PlantAt(0x40000, false) || !in.PlantAt(0x40040, false) {
		t.Fatal("plant failed")
	}
	if n := in.pending.Leaves(); n != 1 {
		t.Fatalf("plants on one frame allocated %d leaves, want 1", n)
	}
	if err := m.Run(func() error { m.Load64(0x40040); return nil }); err != nil {
		t.Fatal(err)
	}
	outs, pending := in.Outcomes(), in.PendingPlants()
	if len(outs) != 1 || outs[0].Plant.VAddr != 0x40040 || outs[0].Uncorrectable {
		t.Fatalf("outcomes = %+v, want the 0x40040 plant corrected", outs)
	}
	if len(pending) != 1 || pending[0].VAddr != 0x40000 {
		t.Fatalf("pending = %+v, want the 0x40000 plant", pending)
	}
}

// TestInjectorSpareReuse checks that a released injector is taken back by
// the next New on the machine and starts as a fresh one would: no pending
// plants or outcomes, zeroed counters, and the seed's bit stream from its
// start.
func TestInjectorSpareReuse(t *testing.T) {
	m := machine.MustNew(machine.Config{MemBytes: 4 << 20})
	if err := m.Kern.MapPages(0x40000, 1); err != nil {
		t.Fatal(err)
	}
	first := New(m, Config{Seed: 9})
	if !first.PlantAt(0x40000, false) {
		t.Fatal("plant failed")
	}
	first.Release()
	in := New(m, Config{Seed: 9})
	if in != first {
		t.Fatal("New did not reuse the released injector")
	}
	if len(in.PendingPlants()) != 0 || len(in.Outcomes()) != 0 || in.Stats() != (Stats{}) {
		t.Fatalf("reused injector keeps state: pending %d, outcomes %d, stats %+v",
			len(in.PendingPlants()), len(in.Outcomes()), in.Stats())
	}
	fresh := New(machine.MustNew(machine.Config{MemBytes: 4 << 20}), Config{Seed: 9})
	for i := 0; i < 300; i++ {
		if a, b := in.rng.Int63(), fresh.rng.Int63(); a != b {
			t.Fatalf("draw %d: reused injector %d, fresh %d", i, a, b)
		}
	}
}
