package machine_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	safemem "safemem/internal/core"
	"safemem/internal/heap"
	"safemem/internal/machine"
	"safemem/internal/sampletool"
	"safemem/internal/telemetry"
	"safemem/internal/vm"
)

// sourceNames lists every scalar the registry reports, in export order. A
// duplicate emitter shows up as a repeated name.
func sourceNames(m *machine.Machine) []string {
	var out []string
	for _, v := range m.Telemetry.Snapshot() {
		out = append(out, v.Component+"/"+v.Name)
	}
	return out
}

// TestRecycleTruncatesRegistry pins what Recycle does to telemetry: the
// machine keeps its registry, and the sources a run's heap, SafeMem tool
// and sampler registered are truncated away, so after any number of
// recycles the registry reports exactly what a fresh machine's does — no
// duplicate emitters, no source reading a previous run's freed tool.
func TestRecycleTruncatesRegistry(t *testing.T) {
	cfg := machine.Config{MemBytes: 16 << 20}
	fresh := sourceNames(machine.MustNew(cfg))

	m := machine.MustNew(cfg)
	reg := m.Telemetry
	for k := 0; k < 4; k++ {
		ho := safemem.HeapOptions(true)
		ho.Limit = 8 << 20
		alloc, err := heap.New(m, ho)
		if err != nil {
			t.Fatal(err)
		}
		if k%2 == 0 {
			_, err = safemem.Attach(m, alloc, safemem.DefaultOptions())
		} else {
			_, err = sampletool.Attach(m, alloc, sampletool.Options{Rate: 1, Seed: uint64(k), SafeMem: safemem.DefaultOptions()})
		}
		if err != nil {
			t.Fatal(err)
		}
		last := k == 3
		runErr := m.Run(func() error {
			for i := 0; i < 8; i++ {
				va, err := alloc.Malloc(200)
				if err != nil {
					return err
				}
				m.Memset(va, 0x5a, 200)
				if i%2 == 0 {
					if err := alloc.Free(va); err != nil {
						return err
					}
				}
			}
			if last {
				// End the final run mid-access: a load of an unmapped page.
				m.Load64(vm.VAddr(1) << 40)
			}
			return nil
		})
		if last != (runErr != nil) {
			t.Fatalf("run %d: err = %v", k, runErr)
		}
		if got := sourceNames(m); len(got) <= len(fresh) {
			t.Fatalf("run %d registered no per-run sources — the test would be vacuous", k)
		}
		m.Recycle()
		if m.Telemetry != reg {
			t.Fatal("Recycle replaced the telemetry registry")
		}
		if got := sourceNames(m); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("after recycle %d the registry reports\n%v\nwant a fresh machine's\n%v", k+1, got, fresh)
		}
		if _, _, _, ok := m.AccessInFlight(); ok {
			t.Fatalf("access still in flight after recycle %d", k+1)
		}
	}
}

// TestRecycleAfterSnapshot pins that a snapshot taken mid-life does not
// confuse Recycle's dirty-only restore: the pristine image must still be
// reached exactly, not the later snapshot's state.
func TestRecycleAfterSnapshot(t *testing.T) {
	fresh := runSnapWorkload(t, machine.MustNew(snapCfg))

	m := machine.MustNew(snapCfg)
	runSnapWorkload(t, m)
	m.Snapshot()
	runSnapWorkload(t, m)
	m.Recycle()
	if got := runSnapWorkload(t, m); got != fresh {
		t.Fatalf("recycle after a mid-life snapshot diverges:\nfresh: %+v\ngot:   %+v", fresh, got)
	}
}

// TestPoolTaintRule pins Pool's accounting: a clean Done recycles the
// machine into the pool, a tainted one drops it, and a Get the pool cannot
// serve counts one cold build.
func TestPoolTaintRule(t *testing.T) {
	var p machine.Pool
	cfg := machine.Config{MemBytes: 1 << 22}
	m, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st != (machine.PoolStats{Built: 1}) {
		t.Fatalf("after the first Get: %+v, want one build", st)
	}
	p.Done(m, false)
	if st := p.Stats(); st != (machine.PoolStats{Built: 1, Dropped: 1}) {
		t.Fatalf("after a tainted Done: %+v, want one drop", st)
	}
	// The dropped machine must not come back: the pool is empty again.
	m2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m {
		t.Fatal("Get returned the dropped machine")
	}
	if got := p.Stats().Built; got != 2 {
		t.Fatalf("Get after a drop built %d machines in total, want 2", got)
	}
	p.Done(m2, true)
	if st := p.Stats(); st != (machine.PoolStats{Built: 2, Dropped: 1, Released: 1}) {
		t.Fatalf("after a clean Done: %+v, want one release", st)
	}
	// Another Config has its own idle list: the recycled machine is not
	// handed out for it.
	if m3, err := p.Get(machine.Config{MemBytes: 1 << 21}); err != nil || m3 == m2 {
		t.Fatalf("Get of another Config: err=%v, same machine=%v", err, m3 == m2)
	}
}

// TestPoolReferenceNeverRecycles pins the Reference rule: every Get of a
// Reference Config builds fresh, and a clean Done discards the machine
// without counting a release.
func TestPoolReferenceNeverRecycles(t *testing.T) {
	var p machine.Pool
	cfg := machine.Config{MemBytes: 1 << 22, Reference: true}
	for i := 0; i < 3; i++ {
		m, err := p.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Done(m, true)
	}
	if st := p.Stats(); st != (machine.PoolStats{Built: 3}) {
		t.Fatalf("three clean Reference runs: %+v, want three builds and nothing else", st)
	}
}

// TestPoolTelemetryNeverPooled pins that a Config carrying a Telemetry
// registry bypasses the pool: its machine reports into that registry, is
// built fresh, is never handed out again, and moves no counter.
func TestPoolTelemetryNeverPooled(t *testing.T) {
	var p machine.Pool
	cfg := machine.Config{MemBytes: 1 << 22, Telemetry: telemetry.NewRegistry("run", telemetry.Config{})}
	m, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Telemetry != cfg.Telemetry {
		t.Fatal("machine does not report into the Config's registry")
	}
	p.Done(m, true)
	m2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m {
		t.Fatal("a machine with a caller-owned registry was pooled")
	}
	p.Done(m2, false)
	if st := p.Stats(); st != (machine.PoolStats{}) {
		t.Fatalf("telemetry runs moved the pool counters: %+v", st)
	}
}

// TestPoolSurvivesGC pins that idle machines are held, not cached: garbage
// collections between a clean Done and the next Get of that Config do not
// cost a rebuild.
func TestPoolSurvivesGC(t *testing.T) {
	var p machine.Pool
	cfg := machine.Config{MemBytes: 1 << 22}
	m, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Done(m, true)
	runtime.GC()
	runtime.GC()
	m2, err := p.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatal("the idle machine did not survive two garbage collections")
	}
	if got := p.Stats().Built; got != 1 {
		t.Fatalf("built %d machines, want 1", got)
	}
}

// TestPoolConcurrent drives one pool from several goroutines at once, as
// the campaign's shards do; run under -race it pins the pool's counters and
// hand-off as race-free. Every machine handed out is accounted for, and the
// pool never builds more machines than were dropped plus the most in use at
// once.
func TestPoolConcurrent(t *testing.T) {
	var p machine.Pool
	cfg := machine.Config{MemBytes: 1 << 22}
	const workers, runs = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				m, err := p.Get(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				err = m.Run(func() error {
					if err := m.Kern.MapPages(0x20000, 1); err != nil {
						return err
					}
					m.Store64(0x20000, uint64(w))
					return nil
				})
				if err != nil {
					t.Error(err)
				}
				p.Done(m, (w+i)%3 != 0)
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.Released+st.Dropped != workers*runs {
		t.Fatalf("released %d + dropped %d machines, want %d runs accounted for", st.Released, st.Dropped, workers*runs)
	}
	if st.Built < st.Dropped || st.Built > st.Dropped+workers {
		t.Fatalf("built %d machines for %d workers with %d drops", st.Built, workers, st.Dropped)
	}
}
