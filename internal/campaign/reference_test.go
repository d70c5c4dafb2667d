package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"safemem/internal/apps"
	"safemem/internal/bench"
	safemem "safemem/internal/core"
	"safemem/internal/heap"
	"safemem/internal/machine"
	"safemem/internal/simtime"
)

// benchDigest is every simulated observable of a bench run; the host-side
// Registry pointer and explain strings are deliberately excluded.
type benchDigest struct {
	cycles  simtime.Cycles
	instrs  uint64
	mstats  machine.Stats
	heap    heap.Stats
	reports []safemem.BugReport
	sm      safemem.Stats
}

func digestBench(t *testing.T, app string, tool bench.Tool, mcfg machine.Config) benchDigest {
	t.Helper()
	res, err := bench.RunSpec(bench.Spec{App: app, Tool: tool, Cfg: apps.Config{Seed: 42}, Machine: mcfg})
	if err != nil {
		t.Fatalf("%s/%v: %v", app, tool, err)
	}
	if res.Err != nil {
		t.Fatalf("%s/%v run failed: %v", app, tool, res.Err)
	}
	return benchDigest{
		cycles: res.Cycles, instrs: res.Instrs, mstats: res.Machine,
		heap: res.Heap, reports: res.SafeMem, sm: res.SafeMemStats,
	}
}

func campaignJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// poolMoves returns how far the machine-pool counters moved between st0
// and now.
func poolMoves(st0 machine.PoolStats) machine.PoolStats {
	st := machine.PoolTotals()
	return machine.PoolStats{Released: st.Released - st0.Released, Dropped: st.Dropped - st0.Dropped, Built: st.Built - st0.Built}
}

// referenceCampaign runs cfg on Config.Reference executor machines,
// returning the summary JSON and how far the pool counters moved. Campaign
// tests never run in parallel within this package, so setting Reference on
// the package's executor Config is race-free.
func referenceCampaign(t *testing.T, cfg Config) ([]byte, machine.PoolStats) {
	t.Helper()
	execConfig.Reference = true
	defer func() { execConfig.Reference = false }()
	st0 := machine.PoolTotals()
	return campaignJSON(t, cfg), poolMoves(st0)
}

// campaignRuns is how many executor runs cfg makes: per scenario, the
// baseline plus one per judged configuration other than the baseline.
func campaignRuns(cfg Config) uint64 {
	tools := cfg.Tools
	if len(tools) == 0 {
		tools = []ToolConfig{CfgML, CfgMC, CfgBoth}
	}
	per := uint64(1)
	for _, tc := range tools {
		if tc != CfgNone {
			per++
		}
	}
	return uint64(cfg.Seeds) * per
}

// The three tests below are one sweep, split by the rows that stress each
// host-side fast lane hardest. Every row compares pooled default machines
// against fresh Config.Reference machines, which run with all four lanes —
// the controller's known-clean line bitmap, the software TLB, the batched
// access lane and pooled machine reuse — off, so each test pins every lane
// on its rows. The unit-level versions are TestFastPathEquivalence
// (internal/memctrl), TestTLBTransparent (internal/vm), and
// TestBatchEquivalence, TestMachineRecycleEquivalence and
// FuzzMachineDifferential (internal/machine).

// TestBatchLaneEquivalence runs every paper app under no tool, the full
// SafeMem detector and the sampling detector. Watched and guarded lines land
// mid-batch, so bug reports, detection latencies and stats must match the
// Reference machine's.
func TestBatchLaneEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("reference equivalence sweep is slow")
	}
	ref := machine.DefaultConfig()
	ref.Reference = true

	start := machine.PoolTotals()
	for _, app := range apps.All() {
		for _, tool := range []bench.Tool{bench.ToolNone, bench.ToolSafeMemBoth, bench.ToolSample} {
			pooled := digestBench(t, app.Name, tool, machine.DefaultConfig())

			st0 := machine.PoolTotals()
			fresh := digestBench(t, app.Name, tool, ref)
			if mv := poolMoves(st0); mv.Released != 0 || mv.Built != 1 {
				t.Fatalf("%s/%v: reference run released %d and built %d machines, want 0 and 1",
					app.Name, tool, mv.Released, mv.Built)
			}

			if !reflect.DeepEqual(pooled, fresh) {
				t.Errorf("%s/%v diverges from the reference machine:\npooled:    %+v\nreference: %+v",
					app.Name, tool, pooled, fresh)
			}
		}
	}
	if poolMoves(start).Released == 0 {
		t.Error("bench pooled side never recycled a machine")
	}
}

// TestTLBEquivalence runs a whole campaign on flaky DIMMs: fault storms, the
// scrub daemon and page retirement drive the swap, retirement and migration
// paths through every TLB invalidation site, and leave the dirtiest machines
// behind for the pool.
func TestTLBEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("reference equivalence sweep is slow")
	}
	checkReferenceCampaign(t, Config{Seeds: 6, BaseSeed: 411, Shards: 1, FaultRate: 40, Storm: true, Retire: true})
}

// TestRecycleEquivalence runs whole campaigns on clean hardware and under
// the sampling tool, which leaves a sampled pool and scrambled watch lines
// of its own on a recycled machine.
func TestRecycleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("reference equivalence sweep is slow")
	}
	checkReferenceCampaign(t, Config{Seeds: 8, BaseSeed: 42, Shards: 1})
	checkReferenceCampaign(t, Config{Seeds: 6, BaseSeed: 77, Shards: 1, Tools: []ToolConfig{CfgSample, CfgBoth}, SampleRate: 8})
}

// checkReferenceCampaign runs cfg on Reference machines at its own shard
// count and on pooled executor machines at shard counts 1 and 3; the three
// summaries must be byte-identical. It fails if a Reference run ever
// recycles or the pooled side never does.
func checkReferenceCampaign(t *testing.T, cfg Config) {
	t.Helper()
	fresh, st := referenceCampaign(t, cfg)
	if want := campaignRuns(cfg); st.Released != 0 || st.Built != want {
		t.Fatalf("campaign %+v: reference runs released %d and built %d machines, want 0 and %d",
			cfg, st.Released, st.Built, want)
	}

	st0 := machine.PoolTotals()
	pooled1 := campaignJSON(t, cfg)
	cfg3 := cfg
	cfg3.Shards = 3
	pooled3 := campaignJSON(t, cfg3)
	if poolMoves(st0).Released == 0 {
		t.Errorf("campaign %+v: pooled side never recycled a machine", cfg)
	}

	if !bytes.Equal(fresh, pooled1) {
		t.Errorf("pooled summary diverges from reference (cfg %+v):\n--- reference\n%s\n--- pooled\n%s", cfg, fresh, pooled1)
	}
	if !bytes.Equal(fresh, pooled3) {
		t.Errorf("pooled 3-shard summary diverges from reference (cfg %+v):\n--- reference\n%s\n--- pooled shards=3\n%s", cfg, fresh, pooled3)
	}
}
