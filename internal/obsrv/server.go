// Package obsrv is the live observability plane: an embedded HTTP server
// (the -serve flag of safemem-fuzz, safemem-bench and safemem-run)
// exposing the running simulator's telemetry and flight recorder.
//
// Endpoints:
//
//	/metrics      Prometheus text scrape of the live telemetry registries
//	/healthz      200 while monitoring is undegraded, 503 once SafeMem has
//	              given up capabilities or the kernel absorbed data loss
//	/readyz       200 while the page-retirement budget holds, 503 after
//	/buildinfo    build identity JSON (module, version, VCS rev, Go)
//	/events       Server-Sent Events stream of the flight recorder
//	/debug/pprof  the standard Go profiling handlers
//
// Determinism contract: the plane is observation-only. Every handler reads
// host-side state — atomic registry metrics, cached source values, the
// flight-recorder ring — and never touches a simulated machine, clock or
// source callback. Simulated results (campaign JSON summaries, bench
// tables, goldens) are byte-identical with the server on or off; the
// equivalence is pinned by TestCampaignDeterminismWithServer.
package obsrv

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"safemem/internal/machine"
	"safemem/internal/obsrv/buildinfo"
	"safemem/internal/obsrv/flight"
	"safemem/internal/profiling"
	"safemem/internal/telemetry"
)

// Config parameterises a server.
type Config struct {
	// Addr is the listen address (the -serve flag), e.g. ":9090" or
	// "127.0.0.1:0" for an ephemeral test port.
	Addr string
	// Session, when set, is scraped by /metrics (every registry, live).
	Session *telemetry.Session
	// Registry, when set, is scraped by /metrics alongside the session's
	// registries (the campaign CLI passes its aggregate registry here).
	Registry *telemetry.Registry
	// Recorder backs /events and the health endpoints. Nil uses
	// flight.Default — what every in-tree emitter writes to.
	Recorder *flight.Recorder
	// RetireBudget is the page-retirement count beyond which /readyz turns
	// 503 (the machine is running out of healthy frames). 0 means the
	// DefaultRetireBudget.
	RetireBudget uint64
	// ReplayLastN is how many historical events /events replays to a new
	// subscriber before live streaming. 0 means DefaultReplayLastN; -1
	// disables replay.
	ReplayLastN int
	// Extra mounts additional handlers onto the server's mux, keyed by
	// pattern (net/http ServeMux syntax, method prefixes allowed). The
	// fleet front end mounts its job API here so one listener carries both
	// the serving API and the observability plane.
	Extra map[string]http.Handler
	// Ready, when set, is an additional /readyz veto: returning ok=false
	// turns readiness 503 with the detail in the body. The fleet reports
	// "draining" through it.
	Ready func() (ok bool, detail string)
	// DrainDump, when non-empty, is a JSONL path the recorder's recent
	// history is flushed to during Shutdown — the flight-recorder dump a
	// graceful SIGTERM drain must not lose.
	DrainDump string
	// DrainDumpN caps how many trailing events the drain dump writes
	// (0 means DefaultDrainDumpN).
	DrainDumpN int
}

// DefaultDrainDumpN is the shutdown flight-dump size when unset.
const DefaultDrainDumpN = 256

// DefaultRetireBudget is the /readyz retirement budget: past this many
// retired pages the process should be drained, not handed new work.
const DefaultRetireBudget = 64

// DefaultReplayLastN is how much flight history /events replays on connect.
const DefaultReplayLastN = 64

// Server is a running observability endpoint.
type Server struct {
	cfg      Config
	rec      *flight.Recorder
	ln       net.Listener
	srv      *http.Server
	scrapeMu sync.Mutex

	mu     sync.Mutex
	closed bool
}

// Start listens on cfg.Addr and serves the observability endpoints until
// Close. It returns once the listener is bound, so callers can print the
// resolved address (ephemeral ports) before starting their run.
func Start(cfg Config) (*Server, error) {
	if cfg.Recorder == nil {
		cfg.Recorder = flight.Default
	}
	if cfg.RetireBudget == 0 {
		cfg.RetireBudget = DefaultRetireBudget
	}
	if cfg.ReplayLastN == 0 {
		cfg.ReplayLastN = DefaultReplayLastN
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obsrv: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{cfg: cfg, rec: cfg.Recorder, ln: ln}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/buildinfo", s.handleBuildinfo)
	mux.HandleFunc("/events", s.handleEvents)
	profiling.AttachHTTP(mux)
	for pattern, h := range cfg.Extra {
		mux.Handle(pattern, h)
	}

	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address (resolves ":0" test ports).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down, waiting briefly for in-flight requests
// (SSE streams are closed immediately via their contexts).
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// Shutdown gracefully stops the server: /readyz flips to 503 immediately,
// in-flight requests get until the context's deadline, and — when the
// configuration asks for one — the flight recorder's recent history is
// flushed to the drain-dump file so a SIGTERM never loses the black box.
// Safe to call more than once; later calls are no-ops.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.srv.Shutdown(ctx)
	if s.cfg.DrainDump != "" {
		n := s.cfg.DrainDumpN
		if n <= 0 {
			n = DefaultDrainDumpN
		}
		if derr := s.rec.DumpFile(s.cfg.DrainDump, n); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

// registries collects every registry /metrics should scrape.
func (s *Server) registries() []*telemetry.Registry {
	var regs []*telemetry.Registry
	if s.cfg.Session != nil {
		regs = s.cfg.Session.Registries()
	}
	if s.cfg.Registry != nil {
		regs = append(regs, s.cfg.Registry)
	}
	return regs
}

// handleMetrics serves the Prometheus text scrape. The scrape lock
// serialises concurrent scrapers (Prometheus + a curl won't interleave
// buffered writes); freshness comes from the live snapshot path — owned
// metrics through their atomics, source values from the last
// simulation-thread sample — never from calling sources off-thread.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapeMu.Lock()
	defer s.scrapeMu.Unlock()
	w.Header().Set("Content-Type", telemetry.PromContentType)
	for _, reg := range s.registries() {
		if err := reg.WritePrometheusLive(w); err != nil {
			return // client went away mid-scrape
		}
	}
	// Flight-recorder meta-metrics, so scrapers see event flow without
	// consuming /events.
	fmt.Fprintf(w, "# TYPE safemem_flight_events_total counter\n")
	fmt.Fprintf(w, "safemem_flight_events_total %d\n", s.rec.Total())
	fmt.Fprintf(w, "# TYPE safemem_flight_subscriber_drops_total counter\n")
	fmt.Fprintf(w, "safemem_flight_subscriber_drops_total %d\n", s.rec.SubscriberDrops())
	writePoolMetrics(w)
}

// writePoolMetrics appends the machine-pool counters, so operators can
// watch machine reuse — taint drops, and how often a run paid a cold
// machine build — live. Process-global, like the pool itself: campaign
// scenarios, fleet jobs and bench runs all draw on it.
func writePoolMetrics(w io.Writer) {
	st := machine.PoolTotals()
	for _, g := range []struct {
		name string
		n    uint64
	}{
		{"released", st.Released},
		{"dropped", st.Dropped},
		{"built", st.Built},
	} {
		fmt.Fprintf(w, "# TYPE safemem_pool_%s gauge\n", g.name)
		fmt.Fprintf(w, "safemem_pool_%s %d\n", g.name, g.n)
	}
}

// handleHealthz reports monitoring health: the process is "degraded" once
// SafeMem has given up any capability (a DegradedEvent) or the kernel
// absorbed an unrepairable fault as data loss — both flow through the
// flight recorder, so health needs no hook into the simulation.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	degraded := s.rec.Count(flight.KindDegraded)
	loss := s.rec.Count(flight.KindDataLoss)
	if degraded == 0 && loss == 0 {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, "degraded: %d degraded-monitoring events, %d data-loss events\n", degraded, loss)
}

// handleReadyz reports scheduling readiness: a machine that has burned
// through its page-retirement budget is still alive (healthz may even be
// fine) but should drain, not accept new detection jobs.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	retired := s.rec.Count(flight.KindPageRetired)
	failures := s.rec.Count(flight.KindRetireFailed)
	if ok, detail := s.ready(); !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, detail)
		return
	}
	switch {
	case closed:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "shutting down")
	case retired > s.cfg.RetireBudget:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "retirement budget exhausted: %d pages retired (budget %d), %d failures\n",
			retired, s.cfg.RetireBudget, failures)
	default:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "ready (%d/%d pages retired)\n", retired, s.cfg.RetireBudget)
	}
}

// ready evaluates the configured extra readiness veto.
func (s *Server) ready() (bool, string) {
	if s.cfg.Ready == nil {
		return true, ""
	}
	return s.cfg.Ready()
}

// handleBuildinfo serves the binary's build identity.
func (s *Server) handleBuildinfo(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(buildinfo.Get().JSON())
}
