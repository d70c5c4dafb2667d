package safemem

import (
	"fmt"

	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// BugKind classifies a SafeMem report.
type BugKind int

const (
	// BugALeak is an always-leak: a group that is never freed on any path
	// and keeps growing (Section 3.1).
	BugALeak BugKind = iota
	// BugSLeak is a sometimes-leak: an object that outlived its group's
	// expected maximal lifetime and was never accessed again.
	BugSLeak
	// BugOverflow is a write or read past the end of a buffer (access to
	// the trailing guard line).
	BugOverflow
	// BugUnderflow is an access before the start of a buffer (leading
	// guard line).
	BugUnderflow
	// BugFreedAccess is an access to a freed buffer.
	BugFreedAccess
	// BugUninitRead is a read of a never-written buffer (the Section 4
	// extension).
	BugUninitRead
)

// String names the bug kind.
func (k BugKind) String() string {
	switch k {
	case BugALeak:
		return "memory-leak(always)"
	case BugSLeak:
		return "memory-leak(sometimes)"
	case BugOverflow:
		return "buffer-overflow"
	case BugUnderflow:
		return "buffer-underflow"
	case BugFreedAccess:
		return "freed-memory-access"
	case BugUninitRead:
		return "uninitialized-read"
	default:
		return fmt.Sprintf("BugKind(%d)", int(k))
	}
}

// IsLeak reports whether the kind is one of the two leak classes.
func (k BugKind) IsLeak() bool { return k == BugALeak || k == BugSLeak }

// BugReport is one detected bug. For corruption bugs, the report carries
// enough context for the programmer to find the buffer (the simulator's
// stand-in for attaching gdb at the paused instruction).
type BugReport struct {
	Kind BugKind
	// Time is the simulated CPU time of the report.
	Time simtime.Cycles
	// Latency is the detection latency in simulated cycles: the time from
	// when the bug became observable (the watch was armed — free time for
	// freed accesses, allocation for overflows and uninit reads, suspect
	// flagging for leaks) until this report. Zero when unknown.
	Latency simtime.Cycles
	// Addr is the faulting address (corruption) or the object's user
	// pointer (leaks).
	Addr vm.VAddr
	// BufferAddr / BufferSize identify the associated buffer.
	BufferAddr vm.VAddr
	BufferSize uint64
	// Site is the allocation call-stack signature of the buffer's group.
	Site uint64
	// AccessWrite reports whether the faulting access was a store (valid
	// for corruption bugs when the access kind is known).
	AccessWrite bool
	// Details is a human-readable elaboration.
	Details string
}

// String renders the report in the tool's log format.
func (r BugReport) String() string {
	return fmt.Sprintf("[%s] %s addr=%#x buffer=%#x size=%d site=%#x: %s",
		r.Time, r.Kind, uint64(r.Addr), uint64(r.BufferAddr), r.BufferSize, r.Site, r.Details)
}

// Stats summarises the tool's activity, including the Table 5 pruning
// counters.
type Stats struct {
	// Allocs and Frees count interposed heap events.
	Allocs uint64
	Frees  uint64
	// LeakChecks counts periodic detection passes.
	LeakChecks uint64
	// SuspectsFlagged counts objects flagged as leak suspects (the
	// "before pruning" population of Table 5), each object once however
	// many passes flag it.
	SuspectsFlagged uint64
	// SuspectsPruned counts suspects exonerated by an access to their
	// ECC-watched bytes.
	SuspectsPruned uint64
	// LeaksReported counts confirmed leak reports.
	LeaksReported uint64
	// CorruptionReported counts corruption reports.
	CorruptionReported uint64
	// HardwareErrors counts real ECC errors repaired from SafeMem's saved
	// copies.
	HardwareErrors uint64
	// WatchedLines is the current number of ECC-watched lines;
	// MaxWatchedLines is the high-water mark.
	WatchedLines    uint64
	MaxWatchedLines uint64
	// UninitWrites counts first-writes that silently disarmed an
	// uninitialized-read watch.
	UninitWrites uint64
	// DegradedEvents counts monitoring capabilities SafeMem gave up to keep
	// the program running (see DegradedEvent).
	DegradedEvents uint64
	// LinesQuarantined counts lines whose hardware kept faulting and are no
	// longer re-armed.
	LinesQuarantined uint64
	// WatchesRearmed counts watches re-armed after a hardware-error repair.
	WatchesRearmed uint64
	// RearmsSkipped counts re-arms after a repair or a scrub pass that did
	// not happen, whatever the reason: a stale saved watch, a gate refusal,
	// a kernel failure, or a repaired line reaching QuarantineThreshold.
	RearmsSkipped uint64
	// WatchesSuppressedQuarantine and WatchesSuppressedPaused count watch
	// arms and re-arms the degradation policy refused, by reason: a
	// quarantined line, or a machine-wide corruption-arming pause.
	WatchesSuppressedQuarantine uint64
	WatchesSuppressedPaused     uint64
	// DegradePeriods counts machine-wide corruption-arming pauses.
	DegradePeriods uint64
}
