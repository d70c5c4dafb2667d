package campbench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"safemem/internal/campaign"
)

// gateFixture builds a healthy run/baseline pair the tolerance cases below
// perturb. Rates are round numbers so percentage drops are exact.
func gateFixture() *Campaign {
	row := func(tool string, warm, tailWarm float64) Row {
		return Row{Tool: tool, WarmPerSec: warm, TailWarmPerSec: tailWarm}
	}
	return &Campaign{
		Rows: []Row{
			row("none", 1000, 2000),
			row("both", 500, 800),
		},
		Total:           Row{Tool: "TOTAL", WarmPerSec: 750, TailWarmPerSec: 1400},
		FleetWarmPerSec: 300,
	}
}

func TestCheckAgainstPassesIdentical(t *testing.T) {
	if err := gateFixture().CheckAgainst(gateFixture(), 0.25); err != nil {
		t.Fatalf("identical run failed the gate: %v", err)
	}
}

func TestCheckAgainstRejectsEmptyBaseline(t *testing.T) {
	err := gateFixture().CheckAgainst(&Campaign{}, 0.25)
	if err == nil || !strings.Contains(err.Error(), "no total warm rate") {
		t.Fatalf("empty baseline: err = %v, want no-total-warm-rate", err)
	}
}

// TestCheckAgainstToleranceTiers pins the two-tier thresholds: aggregates
// (total, tail total, fleet) fail past tolerance, per-tool rows only past
// double tolerance — single rows jitter on a loaded host, aggregates don't.
func TestCheckAgainstToleranceTiers(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *Campaign)
		fail   bool
	}{
		{"total warm -30%", func(c *Campaign) { c.Total.WarmPerSec = 525 }, true},
		{"total warm -20%", func(c *Campaign) { c.Total.WarmPerSec = 600 }, false},
		{"total tail warm -30%", func(c *Campaign) { c.Total.TailWarmPerSec = 980 }, true},
		{"fleet warm -30%", func(c *Campaign) { c.FleetWarmPerSec = 210 }, true},
		{"fleet warm -20%", func(c *Campaign) { c.FleetWarmPerSec = 240 }, false},
		{"row warm -40%", func(c *Campaign) { c.Rows[0].WarmPerSec = 600 }, false},
		{"row warm -60%", func(c *Campaign) { c.Rows[0].WarmPerSec = 400 }, true},
		{"row tail warm -40%", func(c *Campaign) { c.Rows[1].TailWarmPerSec = 480 }, false},
		{"row tail warm -60%", func(c *Campaign) { c.Rows[1].TailWarmPerSec = 320 }, true},
	}
	for _, tc := range cases {
		cur := gateFixture()
		tc.mutate(cur)
		err := cur.CheckAgainst(gateFixture(), 0.25)
		if tc.fail && err == nil {
			t.Errorf("%s: gate passed, want failure", tc.name)
		}
		if !tc.fail && err != nil {
			t.Errorf("%s: gate failed: %v", tc.name, err)
		}
	}
}

// TestCheckAgainstSkipsUnpairedRows pins that a tool configuration present
// on only one side doesn't fail the gate until the baseline is regenerated.
func TestCheckAgainstSkipsUnpairedRows(t *testing.T) {
	cur := gateFixture()
	cur.Rows = append(cur.Rows, Row{Tool: "experimental", WarmPerSec: 1})
	if err := cur.CheckAgainst(gateFixture(), 0.25); err != nil {
		t.Fatalf("new row failed the gate: %v", err)
	}
	base := gateFixture()
	base.Rows = append(base.Rows, Row{Tool: "retired", WarmPerSec: 1e9})
	if err := gateFixture().CheckAgainst(base, 0.25); err != nil {
		t.Fatalf("removed row failed the gate: %v", err)
	}
}

// TestCheckAgainstImprovementPasses pins that the gate is one-sided: faster
// runs never fail, so a perf win doesn't force a baseline refresh.
func TestCheckAgainstImprovementPasses(t *testing.T) {
	cur := gateFixture()
	cur.Total.WarmPerSec *= 10
	cur.Rows[0].WarmPerSec *= 10
	cur.FleetWarmPerSec *= 10
	if err := cur.CheckAgainst(gateFixture(), 0.25); err != nil {
		t.Fatalf("improved run failed the gate: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := gateFixture()
	c.Seed, c.Scenarios, c.FleetJobs = 42, 32, 16
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := c.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip diverged:\nwrote: %+v\nread:  %+v", c, got)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	if _, err := Read(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing baseline read succeeded")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Error("malformed baseline read succeeded")
	}
}

// TestColdPassBuildsFreshMachines pins the cold pass's pool drain: with no
// pooling switch to turn off, the two garbage collections before each cold
// scenario must empty the executor pool, so every timed cold run pays
// exactly one machine build.
func TestColdPassBuildsFreshMachines(t *testing.T) {
	scenarios := make([]*campaign.Scenario, 4)
	for i := range scenarios {
		scenarios[i] = campaign.Generate(42 + uint64(i))
	}
	// Leave a recycled machine in the pool, as a preceding pass would.
	if _, err := campaign.ExecuteEnv(scenarios[0], campaign.CfgNone, campaign.Env{}); err != nil {
		t.Fatal(err)
	}
	before := campaign.PoolBuilt()
	if _, _, err := scenarioPass(scenarios, nil, campaign.CfgNone, true); err != nil {
		t.Fatal(err)
	}
	if got := campaign.PoolBuilt() - before; got != uint64(len(scenarios)) {
		t.Fatalf("cold pass built %d machines for %d scenarios", got, len(scenarios))
	}
}
