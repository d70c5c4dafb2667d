package telemetry

import (
	"slices"
	"sync"
	"sync/atomic"

	"safemem/internal/simtime"
)

// Phase identifies a trace event's role, using Chrome trace_event letters.
type Phase byte

const (
	// PhaseBegin opens a span.
	PhaseBegin Phase = 'B'
	// PhaseEnd closes the innermost open span.
	PhaseEnd Phase = 'E'
	// PhaseInstant is a zero-duration event.
	PhaseInstant Phase = 'i'
)

// Arg is one key/value annotation on a trace event.
type Arg struct {
	Key   string
	Value uint64
}

// KV builds an Arg.
func KV(key string, value uint64) Arg { return Arg{Key: key, Value: value} }

// TraceEvent is one recorded begin/end/instant event. Events are stored in
// strictly chronological order; because the simulated machine is
// single-threaded, begin/end pairs are properly nested and parent/child
// relationships fall out of the nesting.
type TraceEvent struct {
	Phase     Phase
	Time      simtime.Cycles
	Component string
	Name      string
	Args      []Arg
}

// Tracer records spans and instants against the simulated clock. All
// methods are nil-safe and no-ops while disabled, so instrumentation sites
// can call unconditionally: a disabled tracer takes no lock and allocates
// nothing. Recorded events own copies of their args, so callers' variadic
// slices never escape. Safe for concurrent use (though the simulator itself
// is single-threaded, exporters may read concurrently).
type Tracer struct {
	// enabled is set once a clock is attached with tracing configured; it
	// is read without mu so disabled call sites stay lock-free.
	enabled atomic.Bool

	mu      sync.Mutex
	clock   *simtime.Clock
	max     int
	events  []TraceEvent
	open    int // currently-open span count (for balancing)
	dropped uint64
}

// Span is a handle to an open span. The zero value (from a disabled or
// saturated tracer) is a valid no-op.
type Span struct {
	tr              *Tracer
	component, name string
}

// Enabled reports whether the tracer is recording.
func (t *Tracer) Enabled() bool {
	return t != nil && t.enabled.Load()
}

// attach binds the clock under mu, then publishes the enabled flag, so a
// call site that sees the flag also sees the clock.
func (t *Tracer) attach(clock *simtime.Clock, enabled bool) {
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
	t.enabled.Store(enabled && clock != nil)
}

// Begin opens a span for component/name at the current simulated time.
// Close it with End. Spans must be closed in LIFO order (guaranteed by the
// single-threaded simulation when End is deferred).
func (t *Tracer) Begin(component, name string, args ...Arg) Span {
	if !t.Enabled() {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Reserve room for this span's End plus one End per already-open span,
	// so the trace always closes balanced even at the cap.
	if len(t.events)+t.open+2 > t.max {
		t.dropped++
		return Span{}
	}
	t.events = append(t.events, TraceEvent{
		Phase: PhaseBegin, Time: t.clock.Now(), Component: component, Name: name, Args: slices.Clone(args),
	})
	t.open++
	return Span{tr: t, component: component, name: name}
}

// End closes the span. No-op on a zero Span.
func (s Span) End(args ...Arg) {
	t := s.tr
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.open == 0 {
		return
	}
	t.events = append(t.events, TraceEvent{
		Phase: PhaseEnd, Time: t.clock.Now(),
		Component: s.component, Name: s.name, Args: slices.Clone(args),
	})
	t.open--
}

// Instant records a zero-duration event.
func (t *Tracer) Instant(component, name string, args ...Arg) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events)+t.open+1 > t.max {
		t.dropped++
		return
	}
	t.events = append(t.events, TraceEvent{
		Phase: PhaseInstant, Time: t.clock.Now(), Component: component, Name: name, Args: slices.Clone(args),
	})
}

// closeOpen appends End events for any spans still open (a run that aborted
// mid-span), so exports stay balanced.
func (t *Tracer) closeOpen() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.open > 0 {
		t.events = append(t.events, TraceEvent{Phase: PhaseEnd, Time: t.clock.Now()})
		t.open--
	}
}

// Events returns a copy of all recorded events, in chronological order.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// Dropped returns how many events were discarded at the buffer cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
