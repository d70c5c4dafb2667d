package main

import (
	"fmt"
	"runtime"
	"time"

	"safemem/internal/apps"
	"safemem/internal/bench"
	"safemem/internal/cache"
	"safemem/internal/ecc"
	"safemem/internal/heap"
	"safemem/internal/machine"
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// The layer ledger times isolated calls into each layer's public functions,
// so a change to one layer shows up in its own row even when the end-to-end
// numbers hide it. Each row is the median host cost per operation over
// ledgerBatches batches, every batch sized to take at least ledgerBatchMin.

const (
	ledgerBatches  = 5
	ledgerBatchMin = 2 * time.Millisecond
)

// batchFn runs n operations of one probe and returns the host time they
// took (set-up between operations excluded where the probe says so).
type batchFn func(n int) time.Duration

// ledgerProbe is one ledger row. perOp divides each operation's cost when
// one operation covers several units (lines restored, lines copied).
type ledgerProbe struct {
	name  string
	unit  string // "ns" or "ms" per unit
	perOp int
	setup func() (batchFn, error)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// probeBase is the virtual address the machine-level probes map their pages at.
const probeBase vm.VAddr = 0x10000

var ledgerProbes = []ledgerProbe{
	{"ecc.encode_ns", "ns", 1, func() (batchFn, error) {
		words := probeWords()
		return func(n int) time.Duration {
			var c ecc.Check
			t0 := time.Now()
			for i := 0; i < n; i++ {
				c ^= ecc.Encode(words[i&255])
			}
			d := time.Since(t0)
			sink += uint64(c)
			return d
		}, nil
	}},
	{"ecc.decode_clean_ns", "ns", 1, func() (batchFn, error) { return decodeProbe(false), nil }},
	{"ecc.decode_dirty_ns", "ns", 1, func() (batchFn, error) { return decodeProbe(true), nil }},
	{"memctrl.readline_clean_ns", "ns", 1, func() (batchFn, error) {
		c, _, lines := probeController()
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sink += c.ReadLine(lines[i&63])[0]
			}
			return time.Since(t0)
		}, nil
	}},
	{"memctrl.readline_verify_ns", "ns", 1, func() (batchFn, error) {
		// Rewriting one group with its own bits makes the controller forget
		// the line is known clean, so the read decodes all eight groups.
		c, mem, lines := probeController()
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				a := lines[i&63]
				d, chk := mem.ReadGroupRaw(a)
				mem.WriteGroupRaw(a, d, chk)
				sink += c.ReadLine(a)[0]
			}
			return time.Since(t0)
		}, nil
	}},
	{"memctrl.writeline_ns", "ns", 1, func() (batchFn, error) {
		c, _, lines := probeController()
		var words [physmem.GroupsPerLine]uint64
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				words[0] = uint64(i)
				c.WriteLine(lines[i&63], words)
			}
			return time.Since(t0)
		}, nil
	}},
	{"cache.hit_ns", "ns", 1, func() (batchFn, error) {
		c := probeCache()
		c.StoreWord(128, 1)
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sink += c.LoadWord(128)
			}
			return time.Since(t0)
		}, nil
	}},
	{"cache.miss_evict_ns", "ns", 1, func() (batchFn, error) {
		// Ways+1 lines mapping to one set: every load misses and evicts.
		c := probeCache()
		stride := physmem.Addr(cache.DefaultConfig.Sets * physmem.LineBytes)
		ways := cache.DefaultConfig.Ways + 1
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sink += c.LoadWord(physmem.Addr(i%ways) * stride)
			}
			return time.Since(t0)
		}, nil
	}},
	{"vm.translate_hit_ns", "ns", 1, func() (batchFn, error) {
		as := vm.New(physmem.MustNew(1<<20), &simtime.Clock{})
		if err := as.Map(probeBase, 1, vm.ProtRW); err != nil {
			return nil, err
		}
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				pa, _ := as.Translate(probeBase, false)
				sink += uint64(pa)
			}
			return time.Since(t0)
		}, nil
	}},
	{"vm.translate_miss_ns", "ns", 1, func() (batchFn, error) {
		// Two pages 2^16 pages apart share a slot in any direct-mapped TLB
		// of up to 2^16 entries, so alternating between them always misses.
		as := vm.New(physmem.MustNew(1<<20), &simtime.Clock{})
		far := probeBase + vm.VAddr(1<<16)*vm.PageBytes
		for _, va := range []vm.VAddr{probeBase, far} {
			if err := as.Map(va, 1, vm.ProtRW); err != nil {
				return nil, err
			}
		}
		vas := [2]vm.VAddr{probeBase, far}
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				pa, _ := as.Translate(vas[i&1], false)
				sink += uint64(pa)
			}
			return time.Since(t0)
		}, nil
	}},
	{"machine.load_ns", "ns", 1, func() (batchFn, error) {
		m, err := probeMachine()
		if err != nil {
			return nil, err
		}
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sink += m.Load(probeBase, 8)
			}
			return time.Since(t0)
		}, nil
	}},
	{"machine.batch_line_ns", "ns", probeRunLines, func() (batchFn, error) {
		m, err := probeMachine()
		if err != nil {
			return nil, err
		}
		dst := make([]uint64, probeRunLines*physmem.LineBytes/8)
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				m.LoadRun(probeBase, 8, 8, dst)
			}
			d := time.Since(t0)
			sink += dst[0]
			return d
		}, nil
	}},
	{"machine.copy_line_ns", "ns", probeRunLines, func() (batchFn, error) {
		m, err := probeMachine()
		if err != nil {
			return nil, err
		}
		dst := probeBase + 2*vm.PageBytes
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				m.CopyRun(dst, probeBase, probeRunLines*physmem.LineBytes)
			}
			return time.Since(t0)
		}, nil
	}},
	{"kernel.watch_pair_ns", "ns", 1, func() (batchFn, error) {
		m, err := probeMachine()
		if err != nil {
			return nil, err
		}
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if _, err := m.Kern.WatchMemory(probeBase, physmem.LineBytes); err != nil {
					panic(err)
				}
				if err := m.Kern.DisableWatchMemory(probeBase, physmem.LineBytes); err != nil {
					panic(err)
				}
			}
			return time.Since(t0)
		}, nil
	}},
	{"heap.malloc_free_ns", "ns", 1, func() (batchFn, error) {
		m, err := machine.New(machine.Config{MemBytes: 4 << 20})
		if err != nil {
			return nil, err
		}
		a, err := heap.New(m, heap.Options{Limit: 1 << 20})
		if err != nil {
			return nil, err
		}
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				va, err := a.Malloc(64)
				if err != nil {
					panic(err)
				}
				if err := a.Free(va); err != nil {
					panic(err)
				}
			}
			return time.Since(t0)
		}, nil
	}},
	{"machine.new_ms", "ms", 1, func() (batchFn, error) {
		return func(n int) time.Duration {
			var d time.Duration
			for i := 0; i < n; i++ {
				runtime.GC()
				t0 := time.Now()
				m, err := machine.New(machine.DefaultConfig())
				d += time.Since(t0)
				if err != nil {
					panic(err)
				}
				sink += uint64(m.Clock.Now())
			}
			return d
		}, nil
	}},
	{"snapshot.restore_dirty_line_ns", "ns", probeRunLines, func() (batchFn, error) {
		// Each operation dirties probeRunLines lines (untimed) and times
		// the Restore that puts them back.
		m, err := probeMachine()
		if err != nil {
			return nil, err
		}
		snap := m.Snapshot()
		return func(n int) time.Duration {
			var d time.Duration
			for i := 0; i < n; i++ {
				for l := 0; l < probeRunLines; l++ {
					m.Store64(probeBase+vm.VAddr(l*physmem.LineBytes), uint64(i))
				}
				t0 := time.Now()
				m.Restore(snap)
				d += time.Since(t0)
			}
			return d
		}, nil
	}},
}

// probeRunLines is the line count of one batched-run probe operation.
const probeRunLines = 32

func probeWords() *[256]uint64 {
	var w [256]uint64
	for i := range w {
		w[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	return &w
}

// decodeProbe times ecc.Decode on clean groups, or on groups with one
// flipped data bit (the correction path) when dirty is set.
func decodeProbe(dirty bool) batchFn {
	words := probeWords()
	var data [256]uint64
	var checks [256]ecc.Check
	for i, w := range words {
		checks[i] = ecc.Encode(w)
		data[i] = w
		if dirty {
			data[i] = ecc.FlipDataBit(w, uint(i)%ecc.GroupBits)
		}
	}
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			d, _, _ := ecc.Decode(data[i&255], checks[i&255])
			sink += d
		}
		return time.Since(t0)
	}
}

// probeController builds a controller over 1 MiB of DRAM with 64 lines
// written through it (so they are known clean).
func probeController() (*memctrl.Controller, *physmem.Memory, []physmem.Addr) {
	mem := physmem.MustNew(1 << 20)
	c := memctrl.New(mem, &simtime.Clock{})
	words := probeWords()
	lines := make([]physmem.Addr, 64)
	for i := range lines {
		lines[i] = physmem.Addr(i * 4 * physmem.LineBytes)
		var w [physmem.GroupsPerLine]uint64
		copy(w[:], words[i:])
		c.WriteLine(lines[i], w)
	}
	return c, mem, lines
}

func probeCache() *cache.Cache {
	clk := &simtime.Clock{}
	return cache.MustNew(memctrl.New(physmem.MustNew(1<<20), clk), clk, cache.DefaultConfig)
}

// probeMachine builds a 1 MiB machine with four mapped pages, warm in the
// cache and TLB.
func probeMachine() (*machine.Machine, error) {
	m, err := machine.New(machine.Config{MemBytes: 1 << 20})
	if err != nil {
		return nil, err
	}
	if err := m.Kern.MapPages(probeBase, 4); err != nil {
		return nil, err
	}
	for l := vm.VAddr(0); l < 4*vm.PageBytes; l += physmem.LineBytes {
		m.Store64(probeBase+l, uint64(l))
	}
	return m, nil
}

// measureProbe sizes a batch to at least ledgerBatchMin, then returns the
// median cost per unit over ledgerBatches batches, in the probe's unit.
func measureProbe(p ledgerProbe) (float64, error) {
	batch, err := p.setup()
	if err != nil {
		return 0, fmt.Errorf("ledger %s: %w", p.name, err)
	}
	n := 1
	for batch(n) < ledgerBatchMin {
		n *= 2
	}
	scale := 1.0
	if p.unit == "ms" {
		scale = 1e-6
	}
	costs := make([]float64, ledgerBatches)
	for b := range costs {
		costs[b] = float64(batch(n).Nanoseconds()) / float64(n*p.perOp) * scale
	}
	return median(costs), nil
}

// ledgerAppSeed is the workload seed of the per-app ledger rows.
const ledgerAppSeed = 1

// appCosts runs every paper app uninstrumented ledgerBatches times and
// returns each app's median host nanoseconds per simulated instruction
// (host time inside Machine.Run, as bench.Result.HostNS reports it).
func appCosts() (map[string]float64, error) {
	out := make(map[string]float64, len(appNames))
	for _, name := range appNames {
		costs := make([]float64, ledgerBatches)
		for b := range costs {
			res, err := bench.Run(name, bench.ToolNone, apps.Config{Seed: ledgerAppSeed})
			if err == nil {
				err = res.Err
			}
			if err != nil {
				return nil, fmt.Errorf("ledger %s: %w", name, err)
			}
			costs[b] = float64(res.HostNS) / float64(res.Instrs)
		}
		out[name] = median(costs)
	}
	return out, nil
}

// runLedger measures every ledger row into metrics.
func runLedger(metrics map[string]float64) error {
	for _, p := range ledgerProbes {
		v, err := measureProbe(p)
		if err != nil {
			return err
		}
		metrics["ledger."+p.name] = v
	}
	costs, err := appCosts()
	if err != nil {
		return err
	}
	for name, v := range costs {
		metrics["ledger.apps."+name+".host_ns_per_instr"] = v
	}
	return nil
}
