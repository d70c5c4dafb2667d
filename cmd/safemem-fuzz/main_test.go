package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safemem/internal/campaign"
	"safemem/internal/obsrv/flight"
)

// sabotagedSeed is a scenario whose only corruption plant a sabotaged run
// misses: it passes under ml and violates under mc and both.
const sabotagedSeed = 2

// TestSingleJudgesEveryTool pins that single-scenario mode judges every
// listed configuration, one verdict block each, and fails if any of them
// violates — not only the first, which passes here.
func TestSingleJudgesEveryTool(t *testing.T) {
	tools := []campaign.ToolConfig{campaign.CfgML, campaign.CfgMC, campaign.CfgBoth}
	var out bytes.Buffer
	status := runSingle(&out, sabotagedSeed, "", tools, campaign.Env{Sabotage: true}, "")
	if status != 1 {
		t.Fatalf("exit status %d, want 1\n%s", status, out.String())
	}
	for _, tc := range tools {
		if !strings.Contains(out.String(), "tool="+tc.String()+":") {
			t.Errorf("no verdict block for %s:\n%s", tc, out.String())
		}
	}
	if n := strings.Count(out.String(), "oracle: PASS"); n != 1 {
		t.Errorf("%d passing blocks, want 1 (ml):\n%s", n, out.String())
	}

	out.Reset()
	if status := runSingle(&out, sabotagedSeed, "", tools[:1], campaign.Env{Sabotage: true}, ""); status != 0 {
		t.Fatalf("ml alone: exit status %d, want 0\n%s", status, out.String())
	}
}

// TestSingleFlightDump pins that a single-scenario replay ending in
// violations writes a readable flight-recorder dump carrying them, and a
// passing replay writes none.
func TestSingleFlightDump(t *testing.T) {
	dir := t.TempDir()
	pass := filepath.Join(dir, "pass.jsonl")
	if status := runSingle(&bytes.Buffer{}, sabotagedSeed, "", []campaign.ToolConfig{campaign.CfgML}, campaign.Env{}, pass); status != 0 {
		t.Fatalf("clean replay: exit status %d", status)
	}
	if _, err := os.Stat(pass); !os.IsNotExist(err) {
		t.Fatalf("a passing replay wrote a flight dump (stat err %v)", err)
	}

	path := filepath.Join(dir, "flight.jsonl")
	if status := runSingle(&bytes.Buffer{}, sabotagedSeed, "", []campaign.ToolConfig{campaign.CfgBoth}, campaign.Env{Sabotage: true}, path); status != 1 {
		t.Fatalf("sabotaged replay: exit status %d, want 1", status)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no flight dump: %v", err)
	}
	defer f.Close()
	events, err := flight.ReadJSONL(f)
	if err != nil {
		t.Fatalf("flight dump unreadable: %v", err)
	}
	violations := 0
	for _, e := range events {
		if e.Kind == flight.KindViolation {
			violations++
		}
	}
	if violations == 0 {
		t.Fatalf("flight dump of %d events carries no violation", len(events))
	}
}
