// The NIS (ypserv) workload: a network-information-service daemon serving
// map lookups. Two variants, like the paper's two buggy ypserv versions:
//
//	ypserv1 — an always-leak: the YPPROC_ALL handler allocates an
//	          iteration cursor and no code path ever frees it.
//	ypserv2 — a sometimes-leak: the transaction-record teardown is skipped
//	          on the unknown-key error path only.
//
// The server's legitimate behaviour deliberately includes the patterns that
// make naive leak detection hard: a result cache that grows for the whole
// run but whose entries are read on every lookup (seven size classes — the
// source of ypserv1's pruned false positives), and batched writes held for
// a variable number of requests (ypserv2's).
package apps

import (
	"fmt"
	"math/rand"

	"safemem/internal/machine"
	"safemem/internal/vm"
)

// Fake return addresses for the simulated call stacks.
const (
	nisSiteMain      = 0x401000
	nisSiteInit      = 0x401040
	nisSiteLoop      = 0x401080
	nisSiteRequest   = 0x4010c0
	nisSiteMatch     = 0x401100
	nisSiteAll       = 0x401140 // ypserv1's leaking handler
	nisSiteTxn       = 0x401180 // ypserv2's sometimes-leaked record
	nisSiteCache     = 0x4011c0 // growing-but-used result cache
	nisSiteHeld      = 0x401200 // batched writes held across requests
	nisSiteAuthCache = 0x401240 // second held group
)

var ypserv1App = &App{
	Name:        "ypserv1",
	Description: "a NIS server",
	PaperLOC:    11200,
	Class:       ClassALeak,
	IsRealLeak: func(site, size uint64) bool {
		return site == chainSig(nisSiteMain, nisSiteLoop, nisSiteRequest, nisSiteAll)
	},
	Run: func(e *Env, cfg Config) error { return runNIS(e, cfg, 1) },
}

var ypserv2App = &App{
	Name:        "ypserv2",
	Description: "a NIS server",
	PaperLOC:    9700,
	Class:       ClassSLeak,
	IsRealLeak: func(site, size uint64) bool {
		return site == chainSig(nisSiteMain, nisSiteLoop, nisSiteRequest, nisSiteMatch, nisSiteTxn)
	},
	Run: func(e *Env, cfg Config) error { return runNIS(e, cfg, 2) },
}

// nisState is the server's in-(simulated-)memory state.
type nisState struct {
	e   *Env
	m   *machine.Machine
	rng *rand.Rand

	buckets  vm.VAddr // bucket pointer array
	nbuckets uint64
	desTable vm.VAddr // 32 KiB scrambling table, resident in cache
	reqBuf   vm.VAddr // static request buffer
	respBuf  vm.VAddr // static response buffer

	// Result cache: singly linked, insert at tail, scan from head so the
	// oldest entries are the hottest (they are also the leak suspects).
	cacheHead vm.VAddr // root cell holding head pointer
	cacheTail vm.VAddr // root cell holding tail pointer

	// held tracks batched-write buffers: alloc now, touch-and-free later.
	held map[int][]vm.VAddr // release request index -> buffers
}

const (
	nisDesTableBytes = 32 << 10
	nisEntryValueLen = 40
	nisRequests      = 1200
)

func runNIS(e *Env, cfg Config, variant int) error {
	m := e.M
	defer enter(m, nisSiteMain)()

	s := &nisState{
		e:    e,
		m:    m,
		rng:  rand.New(rand.NewSource(cfg.Seed ^ 0x9e3779b9)),
		held: make(map[int][]vm.VAddr),
	}
	s.initServer()

	requests := nisRequests * cfg.scale()
	func() {
		defer enter(m, nisSiteLoop)()
		for i := 0; i < requests; i++ {
			s.handleRequest(i, cfg.Buggy, variant)
		}
	}()
	return nil
}

// initServer builds the NIS map (400 entries over 256 buckets), the DES
// table and the static I/O buffers.
func (s *nisState) initServer() {
	m := s.m
	defer enter(m, nisSiteInit)()

	s.nbuckets = 256
	s.buckets = mustMalloc(s.e, s.nbuckets*8)
	s.e.Root(s.buckets)
	m.Memset(s.buckets, 0, s.nbuckets*8)

	s.desTable = mustMalloc(s.e, nisDesTableBytes)
	s.e.Root(s.desTable)
	fillWords(m, s.desTable, nisDesTableBytes/8, func(i uint64) uint64 {
		return i * 8 * 0x9e3779b97f4a7c15
	})

	s.reqBuf = mustMalloc(s.e, 256)
	s.respBuf = mustMalloc(s.e, 512)
	s.e.Root(s.reqBuf)
	s.e.Root(s.respBuf)
	m.Memset(s.reqBuf, 0, 256)
	m.Memset(s.respBuf, 0, 512)

	s.cacheHead = mustMalloc(s.e, 8)
	s.cacheTail = mustMalloc(s.e, 8)
	s.e.Root(s.cacheHead)
	s.e.Root(s.cacheTail)
	m.Store64(s.cacheHead, 0)
	m.Store64(s.cacheTail, 0)

	// Populate the map: entry layout [next][klen][vlen][key...][value...].
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("user%04d", i)
		vlen := uint64(nisEntryValueLen + (i%4)*16)
		entry := mustMalloc(s.e, 24+uint64(len(key))+vlen)
		h := nisHash(key) % s.nbuckets
		slot := s.buckets + vm.VAddr(h*8)
		m.Store64(entry, m.Load64(slot)) // next = old head
		m.Store64(entry+8, uint64(len(key)))
		m.Store64(entry+16, vlen)
		storeBytes(m, entry+24, []byte(key))
		for off := uint64(0); off < vlen; off++ {
			m.Store8(entry+24+vm.VAddr(len(key))+vm.VAddr(off), byte('A'+off%26))
		}
		m.Store64(slot, uint64(entry))
	}
}

func nisHash(key string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h
}

// handleRequest services one RPC.
func (s *nisState) handleRequest(i int, buggy bool, variant int) {
	m := s.m
	defer enter(m, nisSiteRequest)()

	// Flush batched writes that are due, whatever the request type.
	s.releaseHeld(i)

	// ypserv1's buggy input mix includes YPPROC_ALL requests.
	if variant == 1 && buggy && i%6 == 5 {
		s.handleAll(i)
		return
	}

	// Parse the request into the static buffer.
	known := true
	// Unknown-key probes are aligned with transaction-record requests
	// (i ≡ 44 mod 60 implies i ≡ 4 mod 20) so the error path always holds
	// a live transaction record to forget.
	if variant == 2 && buggy && i%60 == 44 {
		known = false // ypserv2's buggy inputs probe unknown keys
	}
	var key string
	if known {
		key = fmt.Sprintf("user%04d", s.rng.Intn(400))
	} else {
		key = fmt.Sprintf("ghost%03d", s.rng.Intn(1000))
	}
	storeBytes(m, s.reqBuf, []byte("MATCH passwd.byname "))
	storeBytes(m, s.reqBuf+20, []byte(key))
	_ = loadBytes(m, s.reqBuf, 20+len(key))

	s.handleMatch(i, key)

	// Result-cache maintenance: lookup on every request, insert on every
	// fourth. The cache grows for the entire run but stays in active use:
	// ordinary lookups read the oldest entries, and every eighth request a
	// full statistics sweep touches every entry.
	if i%8 == 5 {
		s.cacheSweep()
	} else {
		s.cacheLookup()
	}
	if i%4 == 3 {
		s.cacheInsert(i)
	}

	// Batched writes: ypserv defers map updates; buffers are held across
	// requests and occasionally much longer than usual.
	if i%25 == 7 {
		s.holdBuffer(i, nisSiteHeld, 96)
	}
	if i%40 == 11 {
		s.holdBuffer(i, nisSiteAuthCache, 160)
	}
}

// handleMatch performs the lookup and builds the response.
func (s *nisState) handleMatch(i int, key string) {
	m := s.m
	defer enter(m, nisSiteMatch)()

	// The per-request transaction record (audit trail).
	var txn vm.VAddr
	func() {
		defer enter(m, nisSiteTxn)()
		if i%20 == 4 {
			txn = mustMalloc(s.e, 192)
			storeBytes(m, txn, []byte(key))
			m.Store64(txn+128, uint64(i))
		}
	}()

	// Hash and walk the bucket chain.
	h := nisHash(key) % s.nbuckets
	m.Compute(60)
	entry := vm.VAddr(m.Load64(s.buckets + vm.VAddr(h*8)))
	var value []byte
	for entry != 0 {
		klen := m.Load64(entry + 8)
		vlen := m.Load64(entry + 16)
		ek := loadBytes(m, entry+24, int(klen))
		if string(ek) == key {
			value = loadBytes(m, entry+24+vm.VAddr(klen), int(vlen))
			break
		}
		entry = vm.VAddr(m.Load64(entry))
	}

	if value == nil {
		// Unknown key: the error path. ypserv2's bug lives here — the
		// transaction record is never freed on this path.
		storeBytes(m, s.respBuf, []byte("ERR nokey"))
		_ = checksum(m, s.respBuf, 16)
		s.desWork()
		return
	}

	// Build and "send" the response.
	storeBytes(m, s.respBuf, []byte("OK "))
	storeBytes(m, s.respBuf+3, value)
	_ = checksum(m, s.respBuf, uint64(3+len(value)))
	s.desWork()

	if txn != 0 {
		_ = checksum(m, txn, 64)
		if err := s.e.Alloc.Free(txn); err != nil {
			machine.Abort("ypserv: free txn: %v", err)
		}
	}
}

// handleAll is ypserv1's YPPROC_ALL handler: it allocates an iteration
// cursor that no path frees — the always-leak.
func (s *nisState) handleAll(i int) {
	m := s.m
	defer enter(m, nisSiteAll)()
	cursor := mustMalloc(s.e, 48)
	m.Store64(cursor, uint64(i))
	m.Store64(cursor+8, uint64(s.buckets))
	// Enumerate a slice of the map through the cursor... and then the
	// handler returns without free(cursor). The cursor is never referenced
	// again: a textbook ALeak.
	entry := vm.VAddr(m.Load64(s.buckets + vm.VAddr(uint64(i%256)*8)))
	n := 0
	for entry != 0 && n < 4 {
		_ = m.Load64(entry + 8)
		entry = vm.VAddr(m.Load64(entry))
		n++
	}
	s.desWork()
}

// desWork models the per-request crypto/marshalling load: a pass over the
// resident DES table plus ALU work.
func (s *nisState) desWork() {
	m := s.m
	m.ScanRun(s.desTable, nisDesTableBytes/8)
	m.Compute(52000)
}

// cacheLookup reads the oldest 24 cache entries (layout: [next][size][data]).
// Reading from the head keeps the oldest entries — the ones old enough to
// draw leak suspicion — demonstrably live.
func (s *nisState) cacheLookup() {
	m := s.m
	p := vm.VAddr(m.Load64(s.cacheHead))
	for n := 0; p != 0 && n < 24; n++ {
		size := m.Load64(p + 8)
		if size > 16 {
			_ = m.Load64(p + 16)
		}
		p = vm.VAddr(m.Load64(p))
	}
}

// cacheInsert appends one entry; seven size classes → seven memory-object
// groups that grow for the whole run (ypserv1's false-positive fodder).
func (s *nisState) cacheInsert(i int) {
	m := s.m
	defer enter(m, nisSiteCache)()
	size := uint64(32 + (i/4%7)*16)
	entry := mustMalloc(s.e, size)
	m.Store64(entry, 0)
	m.Store64(entry+8, size)
	m.Store64(entry+16, uint64(i))
	tail := vm.VAddr(m.Load64(s.cacheTail))
	if tail == 0 {
		m.Store64(s.cacheHead, uint64(entry))
	} else {
		m.Store64(tail, uint64(entry))
	}
	m.Store64(s.cacheTail, uint64(entry))
}

// cacheSweep walks the entire result cache (hit-ratio accounting), reading
// every entry.
func (s *nisState) cacheSweep() {
	m := s.m
	p := vm.VAddr(m.Load64(s.cacheHead))
	for p != 0 {
		_ = m.Load64(p + 8)
		p = vm.VAddr(m.Load64(p))
	}
}

// holdBuffer allocates a batched-write buffer released after a delay —
// usually 20 requests, occasionally 10×, which makes the old ones lifetime
// outliers until the access at release time exonerates them.
func (s *nisState) holdBuffer(i int, site uint64, size uint64) {
	m := s.m
	defer enter(m, site)()
	buf := mustMalloc(s.e, size)
	m.Store64(buf, uint64(i))
	delay := 20
	if s.rng.Intn(12) == 0 {
		delay = 200
	}
	s.held[i+delay] = append(s.held[i+delay], buf)
}

// releaseHeld flushes batched buffers due at request i: each is read (the
// deferred write happens) and freed.
func (s *nisState) releaseHeld(i int) {
	m := s.m
	for _, buf := range s.held[i] {
		_ = checksum(m, buf, 32)
		if err := s.e.Alloc.Free(buf); err != nil {
			machine.Abort("ypserv: release held: %v", err)
		}
	}
	delete(s.held, i)
}
