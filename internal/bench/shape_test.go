package bench

import (
	"strings"
	"testing"

	"safemem/internal/apps"
	"safemem/internal/purify"
)

// These tests assert the paper's qualitative results (the reproduction
// target): who wins, by roughly what factor, and where the crossovers are.
// Exact measured values live in EXPERIMENTS.md.

func TestTable2Shape(t *testing.T) {
	t2, err := RunTable2(128)
	if err != nil {
		t.Fatal(err)
	}
	within := func(got, want float64) bool { return got > want*0.9 && got < want*1.1 }
	if !within(t2.WatchMemoryUS, 2.0) {
		t.Errorf("WatchMemory = %.2fµs, paper 2.0µs", t2.WatchMemoryUS)
	}
	if !within(t2.DisableWatchMemoryUS, 1.5) {
		t.Errorf("DisableWatchMemory = %.2fµs, paper 1.5µs", t2.DisableWatchMemoryUS)
	}
	if !within(t2.MprotectUS, 1.02) {
		t.Errorf("mprotect = %.2fµs, paper 1.02µs", t2.MprotectUS)
	}
	// The ECC calls cost slightly more than mprotect (pinning).
	if t2.WatchMemoryUS <= t2.MprotectUS || t2.DisableWatchMemoryUS <= t2.MprotectUS {
		t.Error("ECC watch calls should exceed mprotect")
	}
	if !strings.Contains(t2.Render(), "WatchMemory") {
		t.Error("render missing rows")
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 3 is slow")
	}
	rows, err := RunTable3(apps.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.BugDetected {
			t.Errorf("%s: bug not detected", r.App)
		}
		// SafeMem total overhead stays in the paper's band (1.6%–14.4%,
		// with slack for simulator variance).
		if r.MLMCPct < 0.5 || r.MLMCPct > 16 {
			t.Errorf("%s: ML+MC overhead %.1f%% outside the paper band", r.App, r.MLMCPct)
		}
		// Purify costs multiples, not percents.
		if r.PurifyFactor < 4.5 {
			t.Errorf("%s: Purify slowdown %.1fX below the paper's floor", r.App, r.PurifyFactor)
		}
		// Corruption detection is the dominant SafeMem cost (Section 6.2).
		if r.OnlyMLPct > r.OnlyMCPct {
			t.Errorf("%s: ML (%.1f%%) exceeds MC (%.1f%%)", r.App, r.OnlyMLPct, r.OnlyMCPct)
		}
		// The headline claim: orders of magnitude cheaper than Purify.
		if r.ReductionX < 25 {
			t.Errorf("%s: reduction %.0fX too small", r.App, r.ReductionX)
		}
	}
	// gzip is the access-dominated extreme: the worst Purify case.
	var gzipRow, squid2Row *Table3Row
	for i := range rows {
		switch rows[i].App {
		case "gzip":
			gzipRow = &rows[i]
		case "squid2":
			squid2Row = &rows[i]
		}
	}
	if gzipRow.PurifyFactor < 2*squid2Row.PurifyFactor {
		t.Errorf("gzip (%.1fX) should suffer far more under Purify than squid2 (%.1fX)",
			gzipRow.PurifyFactor, squid2Row.PurifyFactor)
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "ypserv1") || !strings.Contains(out, "YES") {
		t.Error("render incomplete")
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := RunTable4(apps.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper: reduction by ECC 64X–74X. Allow the simulator's trace mix
		// some slack around that band.
		if r.ReductionX < 55 || r.ReductionX > 100 {
			t.Errorf("%s: reduction %.0fX outside ~64–74X band", r.App, r.ReductionX)
		}
		if r.ECCPct >= r.PagePct {
			t.Errorf("%s: ECC waste not smaller than page waste", r.App)
		}
	}
	if !strings.Contains(RenderTable4(rows), "Reduction") {
		t.Error("render incomplete")
	}
}

func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := RunTable5(apps.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 leak apps", len(rows))
	}
	totalBefore := 0
	for _, r := range rows {
		if r.BeforePruning < 1 {
			t.Errorf("%s: no false positives before pruning (nothing to prune)", r.App)
		}
		if r.AfterPruning > 1 {
			t.Errorf("%s: %d false positives after pruning, paper ≤ 1", r.App, r.AfterPruning)
		}
		if r.AfterPruning > r.BeforePruning {
			t.Errorf("%s: pruning increased false positives", r.App)
		}
		totalBefore += r.BeforePruning
	}
	if totalBefore < 8 {
		t.Errorf("only %d false positives before pruning across all apps; pruning undertested", totalBefore)
	}
	// The paper's squid1 keeps exactly one residual false positive.
	for _, r := range rows {
		if r.App == "squid1" && r.AfterPruning != 1 {
			t.Errorf("squid1 after pruning = %d, paper reports 1", r.AfterPruning)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	series, err := RunFigure3(apps.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if s.Groups < 3 {
			t.Errorf("%s: only %d groups in the study", s.App, s.Groups)
		}
		last := s.Points[len(s.Points)-1]
		if last.Pct < 99 {
			t.Errorf("%s: only %.0f%% of groups stable by run end", s.App, last.Pct)
		}
		// The paper's claim: groups stabilise early. At 2/3 of the run at
		// least 60% must be stable.
		for _, p := range s.Points {
			if p.TimeSec >= s.RunSec*2/3 {
				if p.Pct < 60 {
					t.Errorf("%s: only %.0f%% stable at 2/3 run", s.App, p.Pct)
				}
				break
			}
		}
	}
	out := RenderFigure3(series)
	if !strings.Contains(out, "ypserv1") || !strings.Contains(out, "#") {
		t.Error("render incomplete")
	}
}

func TestToolStrings(t *testing.T) {
	for tool, want := range map[Tool]string{
		ToolNone:        "none",
		ToolSafeMemML:   "safemem-ml",
		ToolSafeMemMC:   "safemem-mc",
		ToolSafeMemBoth: "safemem",
		ToolPurify:      "purify",
		ToolPageProt:    "pageprot",
		ToolMMP:         "mmp",
		ToolSample:      "sample",
	} {
		if tool.String() != want {
			t.Errorf("%d -> %s, want %s", tool, tool.String(), want)
		}
		if got, err := ParseTool(want); err != nil || got != tool {
			t.Errorf("ParseTool(%q) = %v, %v; want %v", want, got, err, tool)
		}
	}
	if _, err := ParseTool("nonesuch"); err == nil {
		t.Error("ParseTool accepted an unknown name")
	}
}

func TestRunUnknownAppAndTool(t *testing.T) {
	if _, err := Run("nonesuch", ToolNone, apps.Config{}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := Run("gzip", Tool(99), apps.Config{}); err == nil {
		t.Error("unknown tool accepted")
	}
	opts := SafeMemOptions(true, true)
	if _, err := RunSpec(Spec{App: "gzip", Tool: ToolPurify, SafeMem: &opts}); err == nil {
		t.Error("SafeMem options accepted for a tool without a SafeMem detector")
	}
}

func TestOverheadHelper(t *testing.T) {
	if Overhead(100, 150) != 0.5 {
		t.Error("Overhead math wrong")
	}
	if Overhead(0, 10) != 0 {
		t.Error("zero base not guarded")
	}
}

func TestPurifyFindsCorruptionToo(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Purify should also flag gzip's overflow (as an invalid write) —
	// the comparison tools see the same bugs, at different cost.
	res, err := Run("gzip", ToolPurify, apps.Config{Seed: 42, Buggy: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Purify {
		if r.Kind == purify.BugInvalidWrite {
			found = true
		}
	}
	if !found {
		t.Errorf("purify missed the overflow; reports: %v", res.Purify)
	}
}

func TestPageProtFindsCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := Run("gzip", ToolPageProt, apps.Config{Seed: 42, Buggy: true})
	if err != nil {
		t.Fatal(err)
	}
	// gzip's 150-byte name lands within the page-rounded record, so page
	// protection CANNOT see this overflow — exactly the granularity
	// argument of the paper. No reports expected.
	if len(res.PageProt) != 0 {
		t.Logf("page protection reported: %v", res.PageProt)
	}
}
