package main

// metric describes one reported number. BENCHMARK.json at the repository
// root repeats the lists below (TestMetricListsMatchBenchmarkJSON keeps the
// two in step).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// untraced run of every workload. Bound is the share of the parent's median
// by which a metric may worsen before a change counts as a regression.
//
// An "op" is the workload's unit of work: one paper-app run, one campaign
// scenario (generate, baseline, four judged runs), or one fleet job. The
// latency tail is p90: every workload leaves hundreds of samples beyond it,
// and on a shared two-core machine p99 swung by up to 40% between runs.
// Host-time bounds are the largest allowed, 25%: other tenants of that
// machine slow memory-bound code by up to 1.7× for minutes at a time.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"sim_mcycles_per_s", "Mcycles/s", "higher", 0.25},
	{"heap_live_mb", "MB", "lower", 0.1},
}

// appNames are the seven paper applications in Table 1 order; the ledger
// reports one host-cost row per app.
var appNames = []string{"ypserv1", "proftpd", "squid1", "ypserv2", "gzip", "tar", "squid2"}

// hostPackages are the internal packages whose CPU self time a traced run
// reports (host.<pkg>.self_pct). Subpackages fold into their parent.
var hostPackages = []string{
	"apps", "bench", "cache", "callstack", "campaign", "core", "ecc",
	"faultmodel", "fleet", "heap", "inject", "kernel", "machine", "memctrl",
	"obsrv", "physmem", "sampletool", "simtime", "snapshot", "telemetry", "vm",
}

// perLayer are the metrics of single layers, reported by every traced run.
// Counts come from the workload's own results and are zero where the
// workload does not reach that layer; ledger rows are isolated calls into
// the layer's public functions, identical on every workload; host rows come
// from a CPU profile of the traced phase.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{"sim.kcycles_per_op", "kcycles", "lower", 0},
		{"sim.cycles_per_instr", "cycles", "lower", 0},
		{"machine.instrs_per_op", "count", "lower", 0},
		{"machine.loads_per_op", "count", "lower", 0},
		{"machine.stores_per_op", "count", "lower", 0},
		{"cache.hit_ratio", "ratio", "higher", 0},
		{"cache.misses_per_kinstr", "count", "lower", 0},
		{"cache.writebacks_per_kinstr", "count", "lower", 0},
		{"cache.flushes_per_op", "count", "lower", 0},
		{"memctrl.line_reads_per_kinstr", "count", "lower", 0},
		{"memctrl.line_writes_per_kinstr", "count", "lower", 0},
		{"memctrl.corrected_per_op", "count", "lower", 0},
		{"kernel.watch_calls_per_op", "count", "lower", 0},
		{"kernel.disable_calls_per_op", "count", "lower", 0},
		{"kernel.ecc_faults_per_op", "count", "lower", 0},
		{"kernel.pages_retired_per_op", "count", "lower", 0},
		{"core.leak_checks_per_op", "count", "lower", 0},
		{"core.suspects_pruned_per_op", "count", "lower", 0},
		{"core.hardware_errors_per_op", "count", "lower", 0},
		{"heap.mallocs_per_op", "count", "lower", 0},
		{"faultmodel.events_per_op", "count", "lower", 0},
		{"oracle.violations_per_kop", "count", "lower", 0},
		{"fleet.queue_wait_pct", "%", "lower", 0},
		{"fleet.worker_busy_frac", "ratio", "lower", 0},
		{"fleet.open_p99_over_limit", "ratio", "lower", 0},
		{"fleet.rejected_frac", "ratio", "lower", 0},
		{"fleet.retries_per_job", "count", "lower", 0},
		{"loadgen.late_frac", "ratio", "lower", 0},
		{"span.op_us_p50", "us", "lower", 0},
		{"span.bench_run_pct", "%", "lower", 0},
		{"span.campaign_generate_pct", "%", "lower", 0},
		{"span.campaign_execute_pct", "%", "lower", 0},
		{"span.campaign_judge_pct", "%", "lower", 0},
		{"span.fleet_submit_pct", "%", "lower", 0},
		{"span.fleet_wait_pct", "%", "lower", 0},
		{"trace_overhead_pct", "%", "lower", 0},
	}
	for _, p := range ledgerProbes {
		ms = append(ms, metric{"ledger." + p.name, p.unit, "lower", 0})
	}
	for _, app := range appNames {
		ms = append(ms, metric{"ledger.apps." + app + ".host_ns_per_instr", "ns", "lower", 0})
	}
	ms = append(ms, metric{"ledger.explained_frac", "ratio", "higher", 0})
	for _, pkg := range hostPackages {
		ms = append(ms, metric{"host." + pkg + ".self_pct", "%", "lower", 0})
	}
	return append(ms,
		metric{"host.runtime_pct", "%", "lower", 0},
		metric{"host.gc_pct", "%", "lower", 0})
}
