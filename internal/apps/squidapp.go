// The squid workload: a web proxy cache. Two buggy versions, as in the
// paper:
//
//	squid1 — a sometimes-leak: when a client aborts mid-fetch, the
//	         half-filled object payload is neither inserted nor freed.
//	squid2 — memory corruption: an aborted request's error buffer is
//	         freed, but the retry queue keeps a dangling pointer that is
//	         dereferenced when the retry fires.
//
// The cache itself is the false-positive generator for squid1: hot objects
// stay resident (and thus "outlive" the maximal lifetime learned from
// evicted cold objects) yet are read on every hit, and the log-rotation
// site keeps one archive buffer alive and untouched for the entire run —
// the paper's one residual false positive after pruning.
package apps

import (
	"math/rand"

	"safemem/internal/machine"
	"safemem/internal/vm"
)

const (
	sqSiteMain   = 0x403000
	sqSiteInit   = 0x403040
	sqSiteReq    = 0x403080
	sqSiteFetch  = 0x4030c0 // payload allocation (squid1's leak)
	sqSiteHeader = 0x403100
	sqSiteLog    = 0x403140 // rotation buffers (residual FP)
	sqSiteError  = 0x403180 // squid2's error buffer (freed then read)
)

var squid1App = &App{
	Name:        "squid1",
	Description: "a Web proxy cache server",
	PaperLOC:    95000,
	Class:       ClassSLeak,
	IsRealLeak: func(site, size uint64) bool {
		// Only the cold upper size classes carry the abort bug; reports on
		// hot-class payload groups are false positives.
		return site == chainSig(sqSiteMain, sqSiteReq, sqSiteFetch) && size >= 192+10*64
	},
	Run: func(e *Env, cfg Config) error { return runSquid(e, cfg, 1) },
}

var squid2App = &App{
	Name:        "squid2",
	Description: "a Web proxy cache server",
	PaperLOC:    93000,
	Class:       ClassFreedAccess,
	Run:         func(e *Env, cfg Config) error { return runSquid(e, cfg, 2) },
}

type squidParams struct {
	requests       int
	hotURLs        int
	coldURLs       int
	hitRate        int // percent of requests aimed at the hot set
	payloadClasses int
	ttl            int // eviction age in requests
	computeACL     uint64
	prewarm        int
	coldTrickle    int // 1-in-N requests forced to a cold upper-class URL
}

func squidConfig(variant int) squidParams {
	if variant == 1 {
		return squidParams{
			requests:       1800,
			hotURLs:        60,
			coldURLs:       4000,
			hitRate:        95,
			payloadClasses: 13,
			ttl:            120,
			computeACL:     105000,
			prewarm:        0,
			coldTrickle:    12,
		}
	}
	return squidParams{
		requests:       1000,
		hotURLs:        100,
		coldURLs:       1500,
		hitRate:        97,
		payloadClasses: 6,
		ttl:            600,
		computeACL:     150000,
		prewarm:        100,
	}
}

// payloadClass maps a URL to its object size class. Hot objects (the
// popular set) come in the lower ten classes; only cold URLs reach the top
// classes — which is also where squid1's aborted fetches happen, since
// slow origin servers are both unpopular and abort-prone.
func (s *squidState) payloadClass(url uint64) int {
	if url < uint64(s.p.hotURLs) {
		n := s.p.payloadClasses - 3
		if n < 1 {
			n = 1
		}
		return int(url) % n
	}
	return int(url) % s.p.payloadClasses
}

func (s *squidState) payloadSize(url uint64) uint64 {
	return uint64(192 + s.payloadClass(url)*64)
}

// cacheEntry header layout in simulated memory:
// [0]=next  [8]=urlID  [16]=payloadPtr  [24]=size  [32]=lastReq  [40]=flags
const sqHeaderBytes = 48

// sqACLTableBytes is the ACL/regex state machine table consulted on every
// request (resident in cache). squid2's configuration walks it more.
const sqACLTableBytes = 20 << 10

type squidState struct {
	e   *Env
	m   *machine.Machine
	rng *rand.Rand
	p   squidParams

	buckets  vm.VAddr
	nbuckets uint64
	aclTable vm.VAddr   // ACL/regex tables walked on every request
	fifo     []vm.VAddr // entry headers in insertion order (eviction queue)

	logBuf     vm.VAddr // current rotation buffer
	logStarted int

	// squid2 retry queue: freed error buffers with their retry request.
	retries map[int]vm.VAddr
}

func runSquid(e *Env, cfg Config, variant int) error {
	m := e.M
	defer enter(m, sqSiteMain)()
	s := &squidState{
		e:       e,
		m:       m,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x00c0ffee)),
		p:       squidConfig(variant),
		retries: make(map[int]vm.VAddr),
	}
	s.initCache()

	// The first log-rotation buffer, plus squid1's "year-end archive": a
	// buffer from the same allocation site and size that stays alive,
	// untouched, for the whole run. It is still referenced (the program
	// writes it out at shutdown) — reporting it is a false positive, and
	// no access ever arrives to prune it.
	s.logBuf = s.newLogBuf()
	archive := s.newLogBuf()
	s.e.Root(archive)

	requests := s.p.requests * cfg.scale()
	for i := 0; i < requests; i++ {
		// Fire due retries first (squid2's dangling-pointer read happens
		// before any allocation of this request can reuse the extent).
		if buf, ok := s.retries[i]; ok {
			s.fireRetry(buf)
			delete(s.retries, i)
		}
		s.request(i, cfg.Buggy, variant)
		if i%100 == 99 {
			s.rotateLog(i)
		}
		s.evict(i)
	}
	return nil
}

func (s *squidState) initCache() {
	m := s.m
	defer enter(m, sqSiteInit)()
	s.nbuckets = 512
	s.buckets = mustMalloc(s.e, s.nbuckets*8)
	s.e.Root(s.buckets)
	m.Memset(s.buckets, 0, s.nbuckets*8)

	s.aclTable = mustMalloc(s.e, sqACLTableBytes)
	s.e.Root(s.aclTable)
	fillWords(m, s.aclTable, sqACLTableBytes/8, func(i uint64) uint64 {
		return i*8 | 1
	})

	// squid2 runs with a prewarmed, near-static cache.
	for i := 0; i < s.p.prewarm; i++ {
		s.insert(i, uint64(i), 0)
	}
}

func (s *squidState) newLogBuf() vm.VAddr {
	m := s.m
	defer enter(m, sqSiteLog)()
	buf := mustMalloc(s.e, 480)
	m.Store64(buf, 0)
	return buf
}

// rotateLog writes out and frees the current rotation buffer and starts a
// fresh one — giving the log group a stable ~100-request lifetime.
func (s *squidState) rotateLog(i int) {
	m := s.m
	_ = checksum(m, s.logBuf, 128)
	if err := s.e.Alloc.Free(s.logBuf); err != nil {
		machine.Abort("squid: rotate log: %v", err)
	}
	s.logBuf = s.newLogBuf()
	s.logStarted = i
}

func (s *squidState) urlFor(i int) uint64 {
	// A steady trickle of one-shot cold requests hits the upper size
	// classes (the slow origins): crawler and API traffic in the mix.
	if s.p.coldTrickle > 0 && i%s.p.coldTrickle == 4 {
		k := uint64(i / s.p.coldTrickle)
		return uint64(s.p.hotURLs) + (k*13+12)%uint64(s.p.coldURLs)/13*13 + 12
	}
	if s.rng.Intn(100) < s.p.hitRate {
		return uint64(s.rng.Intn(s.p.hotURLs))
	}
	return uint64(s.p.hotURLs + s.rng.Intn(s.p.coldURLs))
}

func sqHash(url, buckets uint64) uint64 {
	h := url * 0x9e3779b97f4a7c15
	return (h ^ h>>29) % buckets
}

// request serves one client request.
func (s *squidState) request(i int, buggy bool, variant int) {
	m := s.m
	defer enter(m, sqSiteReq)()

	// ACL checks, header parsing, URL canonicalisation. The ACL state
	// machine walks its tables once per request (squid2's ruleset is
	// heavier: two extra passes).
	m.Compute(s.p.computeACL)
	passes := 2
	if variant == 2 {
		passes = 3
	}
	for p := 0; p < passes; p++ {
		m.ScanRun(s.aclTable, sqACLTableBytes/8)
	}
	url := s.urlFor(i)

	// squid2's bug: occasionally the client disconnects mid-request; the
	// error-response buffer is freed, but the retry queue keeps a dangling
	// pointer to it.
	if variant == 2 && buggy && s.rng.Intn(70) == 0 {
		s.abortRequest(i)
	}

	// Append to the access log.
	m.Store64(s.logBuf+vm.VAddr(8+(uint64(i)%56)*8), uint64(i)<<16|url)

	// Index lookup.
	slot := s.buckets + vm.VAddr(sqHash(url, s.nbuckets)*8)
	entry := vm.VAddr(m.Load64(slot))
	for entry != 0 {
		if m.Load64(entry+8) == url {
			break
		}
		entry = vm.VAddr(m.Load64(entry))
	}

	if entry != 0 {
		// Hit: serve from cache and refresh recency.
		payload := vm.VAddr(m.Load64(entry + 16))
		size := m.Load64(entry + 24)
		n := size
		if n > 512 {
			n = 512
		}
		_ = checksum(m, payload, n)
		m.Store64(entry+32, uint64(i))
		m.Compute(3000)
		return
	}

	// Miss: fetch from origin.
	func() {
		defer enter(m, sqSiteFetch)()
		size := s.payloadSize(url)
		payload := mustMalloc(s.e, size)
		n := size
		if n > 512 {
			n = 512
		}
		fillWords(m, payload, (n+7)/8, func(i uint64) uint64 {
			return url<<32 | i*8
		})

		if variant == 1 && buggy && s.payloadClass(url) >= s.p.payloadClasses-3 && s.rng.Intn(3) == 0 {
			// Client aborted the slow cold fetch mid-transfer: the
			// half-filled payload is abandoned — squid1's sometimes-leak.
			return
		}
		s.insertPayload(i, url, payload, size)
	}()
}

// insert allocates and fills a payload for url, then links it (prewarm and
// normal path share this).
func (s *squidState) insert(i int, url uint64, _ int) {
	m := s.m
	defer enter(m, sqSiteFetch)()
	size := s.payloadSize(url)
	payload := mustMalloc(s.e, size)
	n := size
	if n > 512 {
		n = 512
	}
	fillWords(m, payload, (n+7)/8, func(i uint64) uint64 {
		return url<<32 | i*8
	})
	s.insertPayload(i, url, payload, size)
}

// insertPayload links a fetched payload into the index.
func (s *squidState) insertPayload(i int, url uint64, payload vm.VAddr, size uint64) {
	m := s.m
	var header vm.VAddr
	func() {
		defer enter(m, sqSiteHeader)()
		header = mustMalloc(s.e, sqHeaderBytes)
	}()
	slot := s.buckets + vm.VAddr(sqHash(url, s.nbuckets)*8)
	m.Store64(header, m.Load64(slot))
	m.Store64(header+8, url)
	m.Store64(header+16, uint64(payload))
	m.Store64(header+24, size)
	m.Store64(header+32, uint64(i))
	m.Store64(header+40, 0)
	m.Store64(slot, uint64(header))
	s.fifo = append(s.fifo, header)
}

// evict walks the front of the insertion queue, freeing entries idle longer
// than the TTL and re-queueing still-hot ones. Evictions bound cold-object
// lifetimes, which is what lets the leak detector learn a stable maximum.
func (s *squidState) evict(i int) {
	m := s.m
	for n := 0; n < 4 && len(s.fifo) > 0; n++ {
		header := s.fifo[0]
		last := int(m.Load64(header + 32))
		if i-last <= s.p.ttl {
			// Still fresh: rotate to the back and keep scanning.
			s.fifo = append(s.fifo[1:], header)
			continue
		}
		s.fifo = s.fifo[1:]
		s.unlink(header)
		payload := vm.VAddr(m.Load64(header + 16))
		if err := s.e.Alloc.Free(payload); err != nil {
			machine.Abort("squid: evict payload: %v", err)
		}
		if err := s.e.Alloc.Free(header); err != nil {
			machine.Abort("squid: evict header: %v", err)
		}
	}
}

// unlink removes header from its bucket chain.
func (s *squidState) unlink(header vm.VAddr) {
	m := s.m
	url := m.Load64(header + 8)
	slot := s.buckets + vm.VAddr(sqHash(url, s.nbuckets)*8)
	p := vm.VAddr(m.Load64(slot))
	if p == header {
		m.Store64(slot, m.Load64(header))
		return
	}
	for p != 0 {
		next := vm.VAddr(m.Load64(p))
		if next == header {
			m.Store64(p, m.Load64(header))
			return
		}
		p = next
	}
}

// abortRequest is squid2's buggy path: build an error response, free it,
// but leave its address in the retry queue.
func (s *squidState) abortRequest(i int) {
	m := s.m
	defer enter(m, sqSiteError)()
	buf := mustMalloc(s.e, 1472)
	storeBytes(m, buf, []byte("HTTP/1.0 504 Gateway Timeout"))
	if err := s.e.Alloc.Free(buf); err != nil {
		machine.Abort("squid: free error buf: %v", err)
	}
	s.retries[i+2] = buf // dangling pointer kept by the retry queue
}

// fireRetry dereferences the dangling pointer — the freed-memory access.
func (s *squidState) fireRetry(buf vm.VAddr) {
	m := s.m
	defer enter(m, sqSiteError)()
	_ = m.Load64(buf) // read of freed memory
	_ = m.Load64(buf + 8)
	m.Compute(2000)
}
