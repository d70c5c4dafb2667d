package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"safemem/internal/campaign"
)

// processStart is when this process began; set-up time is measured from it.
var processStart = time.Now()

// warmSalt separates the warm-up ops' seeds from the measured ops' seeds.
const warmSalt = 0x5741524d // "WARM"

// maxNotedViolations caps how many oracle violations a run prints.
const maxNotedViolations = 5

// childResult is what one measuring process reports to its parent.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	HeapMB    float64            `json:"heap_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *childResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runChild is the measuring process of one workload: the untimed warm-up
// (set-up time ends there), the timed closed loop, then the correctness
// checks. An untraced run reports the end-to-end metrics. A traced run
// records spans and a CPU profile over the middle half of its closed loop,
// adds the fleet's open-loop phase, and reports the per-layer metrics,
// writing the trace and profile under outDir.
func runChild(w *workload, seed uint64, seconds float64, traced, setupOnly bool, outDir string) (*childResult, error) {
	sess, err := w.start()
	if err != nil {
		return nil, err
	}
	opFn := func(base uint64) func(i int, r *opRecord, tr *spanLog) {
		return func(i int, r *opRecord, tr *spanLog) { sess.op(campaign.SubSeed(base, i), i, r, tr) }
	}
	closedLoop(w.clients, 0, w.warmOps, time.Time{}, nil, opFn(seed^warmSalt))
	res := &childResult{SetupS: time.Since(processStart).Seconds(), Metrics: map[string]float64{}}
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	res.HeapMB = float64(live[0].Value.Uint64()) / (1 << 20)
	fs, isFleet := sess.(*fleetSession)
	if setupOnly {
		if isFleet {
			return res, fs.f.Close()
		}
		return res, nil
	}

	dur := time.Duration(seconds * float64(time.Second))
	closedDur := dur
	if traced && isFleet {
		closedDur = dur / 2
	}
	run := func(first, minOps int, d time.Duration, logs []*spanLog) ([]opRecord, time.Duration) {
		runtime.GC()
		return closedLoop(w.clients, first, minOps, time.Now().Add(d), logs, opFn(seed))
	}
	origin := time.Now()
	if !traced {
		recs, wall := run(0, w.checkOps, closedDur, nil)
		if isFleet {
			if err := fs.f.Close(); err != nil {
				return nil, err
			}
		}
		summarize(res, recs)
		checkReplay(res, sess, w, seed, recs)
		endToEndMetrics(res, w, recs, wall)
		return res, nil
	}

	var logs []*spanLog
	for c := 0; c < w.clients; c++ {
		logs = append(logs, &spanLog{tid: c})
	}
	profile := filepath.Join(outDir, "cpu-"+w.name+".pprof")
	u1, w1 := run(0, w.checkOps, closedDur/4, nil)
	stop, err := startProfile(profile)
	if err != nil {
		return nil, err
	}
	t, wt := run(len(u1), 1, closedDur/2, logs)
	if err := stop(); err != nil {
		return nil, err
	}
	u2, w2 := run(len(u1)+len(t), 1, closedDur/4, nil)
	recs := append(append(u1, t...), u2...)
	m := res.Metrics
	plainRate := float64(len(u1)+len(u2)) / (w1 + w2).Seconds()
	m["trace_overhead_pct"] = 100 * (plainRate/(float64(len(t))/wt.Seconds()) - 1)

	var jobs []jobSpan
	for _, name := range []string{"fleet.queue_wait_pct", "fleet.worker_busy_frac", "fleet.open_p99_over_limit", "loadgen.late_frac"} {
		m[name] = 0
	}
	rejected := 0
	if isFleet {
		openLog := &spanLog{tid: len(logs)}
		logs = append(logs, openLog)
		runtime.GC()
		open, err := fs.openLoop(seed, len(recs), dur-closedDur, openLog)
		if err != nil {
			return nil, err
		}
		res.Attempted += open.sent
		res.Failed += open.failed
		rejected += open.rejected
		jobs = open.jobs
		openMetrics(res, open)
	}
	tl := summarize(res, recs)
	checkReplay(res, sess, w, seed, recs)
	counted := recs[:min(w.countOps, len(recs))]
	if len(counted) < w.countOps {
		res.Notes = append(res.Notes, fmt.Sprintf("layer counts over %d ops, fewer than the %d that make them repeat exactly",
			len(counted), w.countOps))
	}
	var ct tally
	for i := range counted {
		ct.add(&counted[i].t)
	}
	layerCounts(m, &ct, len(counted))
	m["fleet.rejected_frac"] = float64(rejected+tl.rejected) / float64(res.Attempted)
	m["fleet.retries_per_job"] = float64(tl.retries) / float64(len(recs))
	closedLogs := logs[:w.clients]
	shares, opP50 := spanShares(closedLogs)
	m["span.op_us_p50"] = opP50
	for metric, name := range map[string]string{
		"span.bench_run_pct":         "bench.Run",
		"span.campaign_generate_pct": "campaign.Generate",
		"span.campaign_execute_pct":  "campaign.ExecuteEnv",
		"span.campaign_judge_pct":    "campaign.Judge",
		"span.fleet_submit_pct":      "fleet.Submit",
		"span.fleet_wait_pct":        "fleet.wait",
	} {
		m[metric] = shares[name]
	}
	tracePath := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := writeChromeTrace(tracePath, origin, logs, jobs); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, "trace written to "+tracePath)

	if err := runLedger(m); err != nil {
		return nil, err
	}
	m["ledger.explained_frac"] = 0
	if _, ok := sess.(*appsSession); ok {
		m["ledger.explained_frac"] = explainedFrac(m, &tl.t, recs)
	}
	hs, err := profileShares(profile)
	if err != nil {
		return nil, err
	}
	for _, pkg := range hostPackages {
		m["host."+pkg+".self_pct"] = hs.pkg[pkg]
	}
	m["host.runtime_pct"] = hs.runtime
	m["host.gc_pct"] = hs.gc
	return res, nil
}

// totals are the summed layer counts and fleet scheduling counts of a run.
type totals struct {
	t                 tally
	retries, rejected int
}

// summarize adds the closed-loop ops to the attempted and failed counts,
// reports their oracle violations, and sums their counters.
func summarize(res *childResult, recs []opRecord) totals {
	var tl totals
	var vios []violation
	for i := range recs {
		r := &recs[i]
		if r.failed {
			res.Failed++
		}
		if r.rejected {
			tl.rejected++
		}
		tl.t.add(&r.t)
		tl.retries += r.retries
		vios = append(vios, r.violations...)
	}
	res.Attempted += len(recs)
	if len(vios) > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("oracle_violations %d in %d ops", len(vios), len(recs)))
	}
	for i, v := range vios {
		if i == maxNotedViolations {
			break
		}
		cmd := fmt.Sprintf("safemem-fuzz -seed=%d -tool=%s", v.seed, v.config)
		if v.env != "" {
			cmd += " " + v.env
		}
		res.Notes = append(res.Notes, fmt.Sprintf("violation %s under %s: %s (repro: %s)", v.kind, v.config, v.detail, cmd))
	}
	return tl
}

// checkReplay re-executes the first checkOps ops, compares their outputs
// byte for byte with the timed run's, and records the digest of those
// outputs for the parent to compare against the recorded one.
func checkReplay(res *childResult, sess session, w *workload, seed uint64, recs []opRecord) {
	n := min(w.checkOps, len(recs))
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		out, err := sess.replay(campaign.SubSeed(seed, i), i)
		if err != nil {
			res.problem("op %d: replay failed: %v", i, err)
			continue
		}
		if !bytes.Equal(out, recs[i].out) {
			res.problem("op %d: replayed output differs from the timed run's", i)
		}
		h.Write(recs[i].out)
	}
	if n == w.checkOps {
		res.Digest = fmt.Sprintf("%016x", h.Sum64())
	}
}

// endToEndMetrics fills the untraced run's metrics from the timed loop's
// records and wall time.
func endToEndMetrics(res *childResult, w *workload, recs []opRecord, wall time.Duration) {
	m := res.Metrics
	lat := make([]float64, len(recs))
	var cycles uint64
	var simNS int64
	for i := range recs {
		lat[i] = float64(recs[i].latency.Nanoseconds()) / 1e6
		cycles += recs[i].t[cCycles]
		simNS += recs[i].simNS
	}
	if samplesBeyond(len(lat), 90) < 10 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: only %d samples beyond p90; lengthen the run\n",
			w.name, samplesBeyond(len(lat), 90))
	}
	m["op_ms_p50"] = percentile(lat, 50)
	m["op_ms_p90"] = percentile(lat, 90)
	m["ops_per_s"] = float64(len(recs)) / wall.Seconds()
	m["sim_mcycles_per_s"] = float64(cycles) * 1e3 / float64(simNS)
	res.Notes = append(res.Notes, fmt.Sprintf("%d op latency samples", len(lat)))
}

// openMetrics fills the per-layer metrics of the fleet's open-loop phase
// and notes its latency breakdown.
func openMetrics(res *childResult, open *openResult) {
	m := res.Metrics
	var lat float64
	if len(open.latencyMS) > 0 {
		lat = percentile(open.latencyMS, 99)
	}
	var queued, total float64
	for i := range open.latencyMS {
		queued += open.queueMS[i]
		total += open.latencyMS[i]
	}
	m["fleet.queue_wait_pct"] = 0
	if total > 0 {
		m["fleet.queue_wait_pct"] = 100 * queued / total
	}
	m["fleet.worker_busy_frac"] = open.busyFrac
	m["fleet.open_p99_over_limit"] = lat / float64(fleetLatencyLimit.Milliseconds())
	var lateMS []float64
	lateN := 0
	for _, l := range open.late {
		lateMS = append(lateMS, float64(l.Nanoseconds())/1e6)
		if l > lateLimit {
			lateN++
		}
	}
	m["loadgen.late_frac"] = float64(lateN) / float64(len(open.late))
	verdict := "met"
	switch lateP99 := percentile(lateMS, 99); {
	case lateP99 > float64(lateLimit.Microseconds())/1e3:
		// The generator, not the fleet, set the tail.
		verdict = fmt.Sprintf("not judged: the run is invalid, generator p99 lateness %.2f ms exceeds %v", lateP99, lateLimit)
	case lat > float64(fleetLatencyLimit.Milliseconds()):
		verdict = "missed"
	}
	res.Notes = append(res.Notes, fmt.Sprintf("open loop at %d jobs/s: p99 latency %.2f ms over %d jobs, limit %d ms %s",
		openRate, lat, len(open.latencyMS), fleetLatencyLimit.Milliseconds(), verdict))
	for _, d := range []struct {
		name string
		ms   []float64
	}{{"latency from due time", open.latencyMS}, {"queue wait", open.queueMS}, {"service", open.serviceMS}, {"generator lateness", lateMS}} {
		res.Notes = append(res.Notes, fmt.Sprintf("open loop %s p50 %.3f ms, p99 %.3f ms",
			d.name, percentile(d.ms, 50), percentile(d.ms, 99)))
	}
}

// layerCounts fills the per-op and per-kilo-instruction counter metrics.
func layerCounts(m map[string]float64, t *tally, ops int) {
	per := func(c counter) float64 { return float64(t[c]) / float64(ops) }
	perK := func(c counter) float64 { return 1000 * ratio(t[c], t[cInstrs]) }
	m["sim.kcycles_per_op"] = per(cCycles) / 1000
	m["sim.cycles_per_instr"] = ratio(t[cCPICycles], t[cInstrs])
	m["machine.instrs_per_op"] = per(cInstrs)
	m["machine.loads_per_op"] = per(cLoads)
	m["machine.stores_per_op"] = per(cStores)
	m["cache.hit_ratio"] = ratio(t[cCacheHits], t[cCacheHits]+t[cCacheMisses])
	m["cache.misses_per_kinstr"] = perK(cCacheMisses)
	m["cache.writebacks_per_kinstr"] = perK(cWritebacks)
	m["cache.flushes_per_op"] = per(cFlushes)
	m["memctrl.line_reads_per_kinstr"] = perK(cLineReads)
	m["memctrl.line_writes_per_kinstr"] = perK(cLineWrites)
	m["memctrl.corrected_per_op"] = per(cCorrected)
	m["kernel.watch_calls_per_op"] = per(cWatchCalls)
	m["kernel.disable_calls_per_op"] = per(cDisableCalls)
	m["kernel.ecc_faults_per_op"] = per(cECCFaults)
	m["kernel.pages_retired_per_op"] = per(cPagesRetired)
	m["core.leak_checks_per_op"] = per(cLeakChecks)
	m["core.suspects_pruned_per_op"] = per(cSuspectsPruned)
	m["core.hardware_errors_per_op"] = per(cHWErrors)
	m["heap.mallocs_per_op"] = per(cMallocs)
	m["faultmodel.events_per_op"] = per(cFaultEvents)
	m["oracle.violations_per_kop"] = 1000 * per(cViolations)
}

// explainedFrac is the share of the apps' host time inside bench.Run that
// the ledger accounts for: every load and store at the single-access cost,
// every cache miss at the miss-and-evict cost, every watch at the
// watch/unwatch pair cost and every malloc at the malloc/free pair cost.
// Above 1 means the batched lane serves accesses cheaper than one by one.
func explainedFrac(m map[string]float64, t *tally, recs []opRecord) float64 {
	var simNS int64
	for i := range recs {
		simNS += recs[i].simNS
	}
	ns := float64(t[cLoads]+t[cStores])*m["ledger.machine.load_ns"] +
		float64(t[cCacheMisses])*m["ledger.cache.miss_evict_ns"] +
		float64(t[cWatchCalls])*m["ledger.kernel.watch_pair_ns"] +
		float64(t[cMallocs])*m["ledger.heap.malloc_free_ns"]
	return ns / float64(simNS)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// startProfile starts a CPU profile into path and returns its stop function.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
