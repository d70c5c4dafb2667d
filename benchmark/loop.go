package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// counter indexes a tally: the layer counts one op produced, read from the
// public result records of the calls it made.
type counter int

const (
	cCycles         counter = iota // simulated cycles of every run
	cInstrs                        // simulated instructions, where the result reports them
	cCPICycles                     // simulated cycles of the runs counted in cInstrs
	cLoads                         // machine loads
	cStores                        // machine stores
	cCacheHits                     // cache hits
	cCacheMisses                   // cache misses
	cWritebacks                    // cache write-backs
	cFlushes                       // cache line flushes
	cLineReads                     // memory-controller line reads
	cLineWrites                    // memory-controller line writes
	cCorrected                     // corrected single-bit errors (demand and scrub)
	cWatchCalls                    // kernel WatchMemory calls
	cDisableCalls                  // kernel DisableWatchMemory calls
	cECCFaults                     // ECC faults the kernel handled
	cPagesRetired                  // pages retired by the kernel
	cLeakChecks                    // SafeMem leak-detection passes
	cSuspectsPruned                // leak suspects exonerated by an access
	cHWErrors                      // real hardware errors SafeMem repaired
	cMallocs                       // heap allocations
	cFaultEvents                   // background fault-process events
	cViolations                    // oracle violations
	nCounters
)

type tally [nCounters]uint64

func (t *tally) add(o *tally) {
	for i := range t {
		t[i] += o[i]
	}
}

// opRecord is everything the benchmark keeps about one op.
type opRecord struct {
	start   time.Time
	latency time.Duration
	// simNS is host time spent inside the simulator entry points the op
	// called (bench.Run, campaign.ExecuteEnv, a fleet job's service time).
	simNS    int64
	failed   bool
	rejected bool // the fleet refused the job at admission
	// out is the op's simulated output, byte-comparable across runs.
	out        []byte
	t          tally
	violations []violation
	retries    int
}

// violation is one oracle violation with what is needed to reproduce it.
type violation struct {
	seed                      uint64
	config, kind, detail, env string
}

// closedLoop runs op(first), op(first+1), … on clients goroutines, each
// starting its next op only after its previous one returned, until the
// deadline has passed and at least minOps ops have started. It returns the
// records in op order and the loop's wall time. logs, when non-nil, holds
// one span log per client and each op is recorded as an "op" span.
func closedLoop(clients, first, minOps int, deadline time.Time, logs []*spanLog,
	op func(i int, r *opRecord, tr *spanLog)) ([]opRecord, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	done := map[int]opRecord{}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		var tr *spanLog
		if logs != nil {
			tr = logs[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Decide before claiming an index, so every claimed index
				// runs and the records stay contiguous.
				if next.Load() >= int64(minOps) && !time.Now().Before(deadline) {
					return
				}
				k := int(next.Add(1)) - 1
				r := opRecord{start: time.Now()}
				op(first+k, &r, tr)
				r.latency = time.Since(r.start)
				tr.add("op", "", first+k, r.start, r.latency)
				mu.Lock()
				done[k] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	recs := make([]opRecord, len(done))
	for k, r := range done {
		recs[k] = r
	}
	return recs, wall
}

// clock is the time source of the open-loop generator; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil sleeps in the nanosleep system call rather than on a runtime
// timer: runtime timers wake up to a millisecond late where the poller's
// wait has millisecond resolution, which would add a millisecond of
// generator lateness to every open-loop job.
func (wallClock) SleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}

// openLoop calls send(k, due) for k = 0, 1, … with send k due at
// start + k/rate, for every due time inside d, regardless of how long
// earlier sends took: a stall makes later sends late rather than fewer.
// It returns each send's lateness, the time it started after its due time.
func openLoop(clk clock, rate float64, d time.Duration, send func(k int, due time.Time)) []time.Duration {
	start := clk.Now()
	interval := time.Duration(float64(time.Second) / rate)
	var late []time.Duration
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if due.Sub(start) >= d {
			return late
		}
		clk.SleepUntil(due)
		late = append(late, clk.Now().Sub(due))
		send(k, due)
	}
}
