package bench

import (
	"strings"
	"testing"
)

// TestThroughputPerAppGate pins the per-app rows of CheckAgainst: a single
// app regressing past tolerance must fail the gate even when the total
// stays quiet, rows missing from either side are skipped, and the passing
// direction stays green.
func TestThroughputPerAppGate(t *testing.T) {
	base := &Throughput{
		Rows: []ThroughputRow{
			{App: "gzip", HostNSPerInstr: 2.0},
			{App: "tar", HostNSPerInstr: 2.0},
			{App: "retired", HostNSPerInstr: 1.0},
		},
		Total: ThroughputRow{App: "TOTAL", HostNSPerInstr: 1.0},
	}
	cur := &Throughput{
		Rows: []ThroughputRow{
			{App: "gzip", HostNSPerInstr: 2.1},
			{App: "tar", HostNSPerInstr: 2.0},
			{App: "brand-new", HostNSPerInstr: 9.9},
		},
		Total: ThroughputRow{App: "TOTAL", HostNSPerInstr: 1.05},
	}
	if err := cur.CheckAgainst(base, 0.25); err != nil {
		t.Fatalf("within-tolerance run failed the gate: %v", err)
	}
	cur.Rows[0].HostNSPerInstr = 2.6 // gzip +30%, total untouched
	err := cur.CheckAgainst(base, 0.25)
	if err == nil {
		t.Fatal("per-app regression passed the gate")
	}
	if !strings.Contains(err.Error(), "gzip") {
		t.Fatalf("gate error does not name the regressed app: %v", err)
	}
	cur.Rows[0].HostNSPerInstr = 2.0
	cur.Total.HostNSPerInstr = 1.3 // total +30%
	if err := cur.CheckAgainst(base, 0.25); err == nil {
		t.Fatal("total regression passed the gate")
	}

	// The gate refuses to compare runs of different work: another seed or
	// scale, or a shared row whose deterministic simulated columns moved,
	// fails even when every host rate is unchanged.
	cur.Total.HostNSPerInstr = 1.0
	mismatches := []struct {
		name, want string
		edit       func(*Throughput)
	}{
		{"seed", "seed", func(c *Throughput) { c.Seed = 7 }},
		{"scale", "scale", func(c *Throughput) { c.Scale = 2 }},
		{"sim_instrs", "tar", func(c *Throughput) { c.Rows[1].SimInstrs++ }},
		{"sim_cycles", "gzip", func(c *Throughput) { c.Rows[0].SimCycles++ }},
	}
	for _, m := range mismatches {
		c := *cur
		c.Rows = append([]ThroughputRow(nil), cur.Rows...)
		m.edit(&c)
		err := c.CheckAgainst(base, 0.25)
		if err == nil {
			t.Errorf("%s mismatch passed the gate", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s mismatch error does not name %q: %v", m.name, m.want, err)
		}
	}
	// A row present only in the run is skipped, whatever its columns.
	cur.Rows[2].SimInstrs = 12345
	if err := cur.CheckAgainst(base, 0.25); err != nil {
		t.Fatalf("unpaired row failed the gate: %v", err)
	}
}
