// Package apps contains the seven workload programs used to evaluate
// SafeMem (Table 1): ypserv ×2, proftpd, squid ×2, gzip and tar. Each is a
// deterministic simulated program, written against the machine/heap API,
// that mirrors its namesake's allocation-rate, access-rate and heap-size
// profile and contains the same *class* of bug in a gated code path:
//
//	ypserv1  — NIS server with an always-leak (ALeak)
//	proftpd  — FTP server with a sometimes-leak (SLeak)
//	squid1   — web proxy cache with a sometimes-leak (SLeak)
//	ypserv2  — NIS server with a sometimes-leak (SLeak)
//	gzip     — compression utility with a heap buffer overflow
//	tar      — archiver with a header-field overflow
//	squid2   — web proxy cache with a freed-memory access
//
// With Buggy=false the bug path never executes (the paper's "normal
// inputs", used for overhead measurement); with Buggy=true the workload
// includes the triggering inputs.
package apps

import (
	"fmt"

	"safemem/internal/callstack"
	"safemem/internal/heap"
	"safemem/internal/machine"
	"safemem/internal/vm"
)

// Env is the execution environment handed to an application: the machine
// it runs on, the heap it allocates from, and an optional root registrar
// (used by Purify's conservative leak scanner; nil otherwise).
type Env struct {
	M     *machine.Machine
	Alloc *heap.Allocator
	// AddRoot registers a simulated-memory word as a GC root for
	// conservative scanners. May be nil.
	AddRoot func(vm.VAddr)
}

// Root registers va as a scanner root if a registrar is attached.
func (e *Env) Root(va vm.VAddr) {
	if e.AddRoot != nil {
		e.AddRoot(va)
	}
}

// Config parameterises a run.
type Config struct {
	// Scale multiplies the app's default workload size. Zero means 1.
	Scale int
	// Buggy enables the bug-triggering inputs.
	Buggy bool
	// Seed drives the deterministic workload generator.
	Seed int64
}

func (c Config) scale() int {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// BugClass is the class of bug an application carries.
type BugClass int

const (
	// ClassALeak is an always-leak (Section 3.1).
	ClassALeak BugClass = iota
	// ClassSLeak is a sometimes-leak.
	ClassSLeak
	// ClassOverflow is a heap buffer overflow.
	ClassOverflow
	// ClassFreedAccess is a read/write of freed memory.
	ClassFreedAccess
)

// String names the class.
func (c BugClass) String() string {
	switch c {
	case ClassALeak:
		return "ALeak"
	case ClassSLeak:
		return "SLeak"
	case ClassOverflow:
		return "overflow"
	case ClassFreedAccess:
		return "freed-access"
	default:
		return fmt.Sprintf("BugClass(%d)", int(c))
	}
}

// IsLeak reports whether the class is a leak class.
func (c BugClass) IsLeak() bool { return c == ClassALeak || c == ClassSLeak }

// App describes one workload program.
type App struct {
	// Name matches the paper's Table 1 label.
	Name string
	// Description is the paper's one-line characterisation.
	Description string
	// PaperLOC is the line count reported in Table 1 (for documentation).
	PaperLOC int
	// Class is the class of the app's bug.
	Class BugClass
	// IsRealLeak is the ground truth for leak apps: it reports whether a
	// leak report with the given allocation-site signature and object size
	// corresponds to the app's real bug. The experiment harness uses it to
	// classify SafeMem's reports as true or false positives (Table 5).
	// Nil for corruption apps.
	IsRealLeak func(site, size uint64) bool
	// Run executes the workload.
	Run func(e *Env, cfg Config) error
}

// registry holds all applications in the paper's Table 1 order.
var registry = []*App{ypserv1App, proftpdApp, squid1App, ypserv2App, gzipApp, tarApp, squid2App}

// All returns all applications in Table 1 order.
func All() []*App { return registry }

// LeakApps returns the four leak-bug applications (Tables 3 and 5).
func LeakApps() []*App {
	var out []*App
	for _, a := range registry {
		if a.Class.IsLeak() {
			out = append(out, a)
		}
	}
	return out
}

// Get returns the application with the given name.
func Get(name string) (*App, bool) {
	for _, a := range registry {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// chainSig computes the call-stack signature of a call chain, used to
// declare ground-truth leak sites that match what the running program's
// stack produces.
func chainSig(chain ...uint64) uint64 {
	var s callstack.Stack
	for _, r := range chain {
		s.Push(r)
	}
	return s.Signature()
}

// enter pushes a call frame and returns the matching pop, for
// `defer enter(m, site)()` bracketing.
func enter(m *machine.Machine, site uint64) func() {
	m.Call(site)
	return m.Return
}

// mustMalloc allocates or aborts the simulated program (out-of-memory is a
// workload-sizing bug, not an interesting failure).
func mustMalloc(e *Env, size uint64) vm.VAddr {
	p, err := e.Alloc.Malloc(size)
	if err != nil {
		machine.Abort("workload out of memory: %v", err)
	}
	return p
}

// storeBytes writes b into simulated memory at va — a batched run of byte
// stores, the strcpy idiom shared by every app.
func storeBytes(m *machine.Machine, va vm.VAddr, b []byte) {
	m.StoreByteRun(va, b)
}

// loadBytes reads n bytes of simulated memory at va.
func loadBytes(m *machine.Machine, va vm.VAddr, n int) []byte {
	out := make([]byte, n)
	m.LoadByteRun(va, out)
	return out
}

// runWords is the word count of the helpers' batched runs: one 4 KiB
// page. A run pays a fixed host cost to enter and leave the machine's
// batch lane, so the longer the run, the less of its host time that is;
// the buffer still lives on the stack.
//
// Where a helper cuts its accesses into runs cannot change simulated
// output: a run performs exactly the Load/Store calls of its elements, in
// order, and its wake budget is re-measured at every run entry from the
// same clock, so a sequence cut into 64-word or 512-word runs makes the
// same accesses, charges the same cycles and fires the same wakes. Only
// the batch lane's host-side run count moves.
const runWords = vm.PageBytes / 8

// checksum folds n bytes at va — the generic "the program actually reads
// the data it sends" access pattern. The loads stream through the batched
// fast lane in page-long runs; the access sequence (8-byte words while at
// least 8 bytes remain, then byte loads for the tail) is identical to the
// historical open-coded loop.
func checksum(m *machine.Machine, va vm.VAddr, n uint64) uint64 {
	var buf [runWords]uint64
	var sum uint64
	i := uint64(0)
	for i+8 <= n {
		words := min((n-i)/8, runWords)
		m.LoadRun(va+vm.VAddr(i), 8, 8, buf[:words])
		for _, w := range buf[:words] {
			sum = sum*31 + w
		}
		i += words * 8
	}
	if i < n {
		var tail [7]byte
		m.LoadByteRun(va+vm.VAddr(i), tail[:n-i])
		for _, b := range tail[:n-i] {
			sum = sum*31 + uint64(b)
		}
	}
	return sum
}

// fillWords writes n contiguous 8-byte words at va with f(word index) in
// page-long batched stores — the table-init / stream-fill idiom.
func fillWords(m *machine.Machine, va vm.VAddr, n uint64, f func(i uint64) uint64) {
	var buf [runWords]uint64
	for i := uint64(0); i < n; {
		k := min(n-i, runWords)
		for j := uint64(0); j < k; j++ {
			buf[j] = f(i + j)
		}
		m.StoreRun(va+vm.VAddr(i*8), 8, 8, buf[:k])
		i += k
	}
}
