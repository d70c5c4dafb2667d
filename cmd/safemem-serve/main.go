// Command safemem-serve is the detection fleet front end: an HTTP server
// that accepts detection jobs (scenario seeds or evaluation apps, with
// tool and fault knobs), schedules them across a worker pool of recycled
// simulated machines, and serves verdicts plus live telemetry from one
// listener.
//
// Usage:
//
//	safemem-serve [-addr :9090] [-workers N] [-queue N]
//	              [-deadline 30s] [-watchdog 2s] [-max-attempts 3]
//	              [-quota-rate R] [-quota-burst N]
//	              [-chaos] [-chaos-panic-every N] [-chaos-slow-every N]
//	              [-chaos-slow-for D] [-chaos-fail-every N] [-chaos-seed N]
//	              [-drain-timeout 30s] [-flight-dump FILE]
//	              [-log-level info] [-log-format console|json] [-version]
//
// The job API:
//
//	POST /jobs      submit a JSON JobSpec; 202 + job record on admission,
//	                400 invalid, 429 + Retry-After when the queue or the
//	                tenant's quota is saturated, 503 while draining
//	GET  /jobs      list jobs (?state=done filters)
//	GET  /jobs/{id} one job, including its result once terminal
//
// plus the full observability plane on the same listener: /metrics,
// /healthz, /readyz (503 once draining), /buildinfo, /events (SSE),
// /debug/pprof.
//
// SIGINT/SIGTERM drain gracefully: admission stops (new submits get 503),
// queued and running jobs finish, stragglers past -drain-timeout are
// cancelled, and the flight recorder's recent history lands in
// -flight-dump before exit.
//
// -chaos enables fault injection — a deterministic fraction of jobs
// panic mid-simulation, stall past their deadline, or fail transiently —
// for exercising the degradation paths against a live server. Chaos
// fates key on the job spec, so results remain reproducible.
//
// Workers reuse pooled machines, each reset by restoring its pristine
// image (DESIGN.md §4.11); watch reuse live via the safemem_pool_* gauges
// on /metrics, where safemem_pool_built counts cold machine builds.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"safemem/internal/fleet"
	"safemem/internal/obsrv"
	"safemem/internal/obsrv/buildinfo"
	"safemem/internal/obsrv/logging"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address for the job API and observability plane")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4×workers); overflow answers 429")
	deadline := flag.Duration("deadline", 30*time.Second, "per-job-attempt deadline")
	watchdog := flag.Duration("watchdog", 2*time.Second, "grace a cancelled job gets before the watchdog abandons it")
	maxAttempts := flag.Int("max-attempts", 3, "retry budget: total attempts per job before terminal failure")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant admission tokens per second (0 disables quotas)")
	quotaBurst := flag.Int("quota-burst", 10, "per-tenant token-bucket burst size")
	chaos := flag.Bool("chaos", false, "inject worker panics, stalls and transient failures (see -chaos-*)")
	chaosPanic := flag.Int("chaos-panic-every", 20, "with -chaos: ~1/N jobs panic mid-simulation")
	chaosSlow := flag.Int("chaos-slow-every", 20, "with -chaos: ~1/N jobs stall for -chaos-slow-for")
	chaosSlowFor := flag.Duration("chaos-slow-for", 500*time.Millisecond, "with -chaos: injected stall length")
	chaosFail := flag.Int("chaos-fail-every", 10, "with -chaos: ~1/N jobs fail transiently (healed by retry)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "with -chaos: decorrelates the chaos selection stream")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before stragglers are cancelled")
	flightDump := flag.String("flight-dump", "safemem-serve-flight.jsonl", "flight-recorder dump written during drain (empty disables)")
	flag.Parse()
	if buildinfo.HandleFlag(os.Stdout) {
		return
	}
	log := logging.L("safemem-serve")
	if err := logging.Setup(); err != nil {
		fmt.Fprintf(os.Stderr, "safemem-serve: %v\n", err)
		os.Exit(2)
	}

	cfg := fleet.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		JobDeadline:   *deadline,
		WatchdogGrace: *watchdog,
		MaxAttempts:   *maxAttempts,
		DrainTimeout:  *drainTimeout,
		Quota:         fleet.QuotaConfig{Rate: *quotaRate, Burst: *quotaBurst},
	}
	if *chaos {
		cfg.Chaos = &fleet.Chaos{
			Seed:       *chaosSeed,
			PanicEvery: *chaosPanic,
			SlowEvery:  *chaosSlow,
			SlowFor:    *chaosSlowFor,
			FailEvery:  *chaosFail,
		}
		log.Warn("chaos injection enabled",
			"panic_every", *chaosPanic, "slow_every", *chaosSlow, "fail_every", *chaosFail)
	}
	fl := fleet.Start(cfg)

	srv, err := obsrv.Start(obsrv.Config{
		Addr:      *addr,
		Registry:  fl.Registry(),
		Extra:     fl.Handlers(),
		Ready:     fl.ReadyCheck,
		DrainDump: *flightDump,
	})
	if err != nil {
		log.Error("listen", "err", err)
		os.Exit(2)
	}
	log.Info("fleet serving", "addr", srv.Addr(), "workers", cfg.Workers)

	// SIGINT/SIGTERM: drain the fleet first (admission off, in-flight jobs
	// finish), then shut the HTTP server down and flush the flight dump.
	defer obsrv.HandleSignals(srv, *drainTimeout, func(ctx context.Context) {
		if derr := fl.Drain(ctx); derr != nil {
			log.Error("drain", "err", derr)
		}
	}, os.Exit)()

	select {} // serve until signalled
}
