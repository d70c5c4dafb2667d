package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share its op id; the op's own span has name "op".
type span struct {
	name   string
	detail string
	op     int
	start  time.Time
	dur    time.Duration
}

// spanLog collects one client goroutine's spans in memory. A nil log
// records nothing, which is how untraced phases run.
type spanLog struct {
	tid   int
	spans []span
}

func (l *spanLog) add(name, detail string, op int, start time.Time, dur time.Duration) {
	if l != nil {
		l.spans = append(l.spans, span{name: name, detail: detail, op: op, start: start, dur: dur})
	}
}

// jobSpan is a fleet job's life from its record's timestamps: queued from
// submission to start, then in service until it finished.
type jobSpan struct {
	id                           uint64
	submitted, started, finished int64 // Unix nanoseconds
}

// maxTraceSpans caps how many spans the trace file holds; the per-layer
// shares are computed over every span regardless.
const maxTraceSpans = 50_000

// traceEvent is one Chrome trace_event record.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	ID   uint64            `json:"id,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes the spans (complete events, one track per client)
// and fleet job lives (async events keyed by job id) in Chrome trace format,
// loadable in Perfetto or chrome://tracing.
func writeChromeTrace(path string, origin time.Time, logs []*spanLog, jobs []jobSpan) error {
	var events []traceEvent
	us := func(t time.Time) float64 { return float64(t.Sub(origin).Nanoseconds()) / 1e3 }
	for _, l := range logs {
		for _, s := range l.spans {
			if len(events) >= maxTraceSpans {
				break
			}
			args := map[string]string{"op": strconv.Itoa(s.op)}
			if s.detail != "" {
				args["detail"] = s.detail
			}
			events = append(events, traceEvent{Name: s.name, Ph: "X", TS: us(s.start),
				Dur: float64(s.dur.Nanoseconds()) / 1e3, PID: 1, TID: l.tid, Args: args})
		}
	}
	originNS := origin.UnixNano()
	for _, j := range jobs {
		if len(events)+4 > maxTraceSpans {
			break
		}
		at := func(ns int64) float64 { return float64(ns-originNS) / 1e3 }
		events = append(events,
			traceEvent{Name: "queued", Cat: "job", Ph: "b", TS: at(j.submitted), PID: 2, ID: j.id},
			traceEvent{Name: "queued", Cat: "job", Ph: "e", TS: at(j.started), PID: 2, ID: j.id},
			traceEvent{Name: "service", Cat: "job", Ph: "b", TS: at(j.started), PID: 2, ID: j.id},
			traceEvent{Name: "service", Cat: "job", Ph: "e", TS: at(j.finished), PID: 2, ID: j.id})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// spanShares returns, for every span name other than "op", the share of the
// total op time (percent) spent in spans of that name, plus the median op
// duration in microseconds.
func spanShares(logs []*spanLog) (shares map[string]float64, opP50us float64) {
	total := map[string]time.Duration{}
	var ops []float64
	for _, l := range logs {
		for _, s := range l.spans {
			total[s.name] += s.dur
			if s.name == "op" {
				ops = append(ops, float64(s.dur.Nanoseconds())/1e3)
			}
		}
	}
	shares = map[string]float64{}
	if total["op"] > 0 {
		for name, d := range total {
			if name != "op" {
				shares[name] = 100 * float64(d) / float64(total["op"])
			}
		}
	}
	return shares, percentile(ops, 50)
}

// hostShares are a CPU profile's self-time shares (percent of all samples)
// by internal package, plus the Go runtime's own self time and the share of
// time in garbage collection.
type hostShares struct {
	pkg     map[string]float64
	runtime float64
	gc      float64
}

// gcRoots are the runtime functions whose cumulative time is garbage
// collection: the background mark workers and allocation-time mark assists.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc"}

// profileShares runs `go tool pprof -top` over a CPU profile and aggregates
// its rows by package.
func profileShares(profile string) (*hostShares, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000",
		"-nodefraction=0", "-edgefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	return parsePprofTop(string(out))
}

// parsePprofTop aggregates the rows of `go tool pprof -top` output: flat%
// by internal package (subpackages fold into their top-level package) and
// runtime, cum% of the GC roots.
func parsePprofTop(text string) (*hostShares, error) {
	h := &hostShares{pkg: map[string]float64{}}
	header := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(f) < 6 {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof -top: malformed row %q", line)
		}
		fn := strings.Join(f[5:], " ")
		for _, root := range gcRoots {
			if fn == root {
				h.gc += cum
			}
		}
		pkg := funcPackage(fn)
		if rel, ok := strings.CutPrefix(pkg, "safemem/internal/"); ok {
			top, _, _ := strings.Cut(rel, "/")
			h.pkg[top] += flat
		} else if pkg == "runtime" {
			h.runtime += flat
		}
	}
	if !header {
		return nil, fmt.Errorf("pprof -top: no table header in output")
	}
	return h, nil
}

// funcPackage extracts the import path from a symbol such as
// "safemem/internal/machine.(*Machine).Load": everything before the first
// dot after the last slash.
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
