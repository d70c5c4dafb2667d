// The proftpd workload: an FTP daemon multiplexing interleaved client
// sessions. Its sometimes-leak is the classic aborted-transfer path: when a
// client drops the connection mid-RETR, the transfer buffer teardown is
// skipped.
//
// Legitimate behaviour that stresses the leak detector: per-session rename
// journals held for a variable number of commands (nine size classes whose
// occasional stragglers are the paper-style pruned false positives), and
// session control blocks with widely varying session lengths.
package apps

import (
	"math/rand"

	"safemem/internal/machine"
	"safemem/internal/vm"
)

const (
	ftpSiteMain    = 0x402000
	ftpSiteInit    = 0x402040
	ftpSiteSession = 0x402080
	ftpSiteCommand = 0x4020c0
	ftpSiteRetr    = 0x402100 // the sometimes-leaking transfer buffer
	ftpSiteList    = 0x402140
	ftpSiteJournal = 0x402180
)

var proftpdApp = &App{
	Name:        "proftpd",
	Description: "a ftp server",
	PaperLOC:    68700,
	Class:       ClassSLeak,
	IsRealLeak: func(site, size uint64) bool {
		return site == chainSig(ftpSiteMain, ftpSiteSession, ftpSiteCommand, ftpSiteRetr) &&
			size == 512+ftpLeakClass*128
	},
	Run: runFTP,
}

const (
	ftpTicks        = 1100
	ftpSessions     = 8
	ftpDirEntries   = 96
	ftpXferClasses  = 6
	ftpLeakClass    = 3 // the class the aborted transfers hit
	ftpJournalKinds = 9

	// ftpTLSTableBytes is the TLS table walked on every command; it stays
	// resident in the 256 KiB cache.
	ftpTLSTableBytes = 40 << 10
)

type ftpSession struct {
	control   vm.VAddr // session control block
	remaining int      // commands until QUIT
	cmds      int
}

type ftpState struct {
	e   *Env
	m   *machine.Machine
	rng *rand.Rand

	dirTable vm.VAddr // [name 24B][size 8][mtime 8] × entries
	tlsTable vm.VAddr // TLS sbox/session tables scanned per command
	sessions [ftpSessions]*ftpSession
	journals map[int][]vm.VAddr // release tick -> buffers
}

func runFTP(e *Env, cfg Config) error {
	m := e.M
	defer enter(m, ftpSiteMain)()
	s := &ftpState{
		e:        e,
		m:        m,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x51ed2701)),
		journals: make(map[int][]vm.VAddr),
	}
	s.initServer()

	ticks := ftpTicks * cfg.scale()
	for tick := 0; tick < ticks; tick++ {
		slot := tick % ftpSessions
		if s.sessions[slot] == nil {
			s.sessions[slot] = s.openSession()
		}
		sess := s.sessions[slot]
		s.command(sess, tick, cfg.Buggy)
		s.releaseJournals(tick)
		sess.cmds++
		sess.remaining--
		if sess.remaining <= 0 {
			s.closeSession(sess)
			s.sessions[slot] = nil
		}
	}
	// Drain: close remaining sessions and flush journals.
	for i, sess := range s.sessions {
		if sess != nil {
			s.closeSession(sess)
			s.sessions[i] = nil
		}
	}
	for tick := range s.journals {
		s.releaseJournals(tick)
	}
	return nil
}

func (s *ftpState) initServer() {
	m := s.m
	defer enter(m, ftpSiteInit)()
	s.dirTable = mustMalloc(s.e, ftpDirEntries*40)
	s.e.Root(s.dirTable)
	s.tlsTable = mustMalloc(s.e, ftpTLSTableBytes)
	s.e.Root(s.tlsTable)
	fillWords(m, s.tlsTable, ftpTLSTableBytes/8, func(i uint64) uint64 {
		return i * 8 * 0x9e3779b97f4a7c15
	})
	for i := 0; i < ftpDirEntries; i++ {
		rec := s.dirTable + vm.VAddr(i*40)
		storeBytes(m, rec, []byte("file"))
		m.Store64(rec+24, uint64(1024+i*512))
		m.Store64(rec+32, uint64(1_000_000+i))
	}
}

// openSession allocates the session control block. Most sessions run 24–56
// commands; one in ten is a marathon.
func (s *ftpState) openSession() *ftpSession {
	m := s.m
	defer enter(m, ftpSiteSession)()
	sess := &ftpSession{control: mustMalloc(s.e, 224)}
	m.Memset(sess.control, 0, 224)
	sess.remaining = 24 + s.rng.Intn(32)
	if s.rng.Intn(10) == 0 {
		sess.remaining = 240
	}
	return sess
}

func (s *ftpState) closeSession(sess *ftpSession) {
	m := s.m
	_ = checksum(m, sess.control, 64) // write session log
	if err := s.e.Alloc.Free(sess.control); err != nil {
		machine.Abort("proftpd: close session: %v", err)
	}
}

// command executes one FTP command for the session.
func (s *ftpState) command(sess *ftpSession, tick int, buggy bool) {
	m := s.m
	m.Call(ftpSiteSession)
	defer m.Return()
	defer enter(m, ftpSiteCommand)()

	// Touch the control block (last-activity bookkeeping) — this is what
	// exonerates long sessions from leak suspicion.
	m.Store64(sess.control+8, uint64(tick))

	// Authentication / command parsing load, plus the TLS record
	// processing every control/data exchange pays.
	m.Compute(55000)
	m.ScanRun(s.tlsTable, ftpTLSTableBytes/8)

	switch {
	case tick%6 == 0 || tick%6 == 3:
		s.list()
	case tick%6 == 1:
		s.retr(sess, tick, buggy)
	case tick%12 == 2:
		s.journal(tick)
	default:
		m.Compute(4000) // CWD/NOOP
	}
}

// list scans the directory table and formats entries.
func (s *ftpState) list() {
	m := s.m
	defer enter(m, ftpSiteList)()
	for i := 0; i < ftpDirEntries; i++ {
		rec := s.dirTable + vm.VAddr(i*40)
		_ = m.Load64(rec + 24)
		_ = m.Load64(rec + 32)
		_ = m.Load8(rec)
	}
	m.Compute(2500)
}

// retr transfers a file through a freshly allocated buffer. With buggy
// inputs, a fraction of class-3 transfers are aborted by the client and the
// buffer teardown is skipped — the sometimes-leak.
func (s *ftpState) retr(sess *ftpSession, tick int, buggy bool) {
	m := s.m
	defer enter(m, ftpSiteRetr)()
	class := s.rng.Intn(ftpXferClasses)
	size := uint64(512 + class*128)
	buf := mustMalloc(s.e, size)
	// Fill from the "disk" and send.
	fillWords(m, buf, (size+7)/8, func(i uint64) uint64 {
		return uint64(tick)*0x9e3779b97f4a7c15 + i*8
	})
	_ = checksum(m, buf, size)

	if buggy && class == ftpLeakClass && s.rng.Intn(8) == 0 {
		// Client aborted mid-transfer: error path returns without free.
		return
	}
	if err := s.e.Alloc.Free(buf); err != nil {
		machine.Abort("proftpd: free xfer: %v", err)
	}
}

// journal allocates a rename-journal record held for a variable number of
// ticks — usually 12, occasionally 10× longer. Nine size classes.
func (s *ftpState) journal(tick int) {
	m := s.m
	defer enter(m, ftpSiteJournal)()
	size := uint64(64 + (tick/12%ftpJournalKinds)*32)
	buf := mustMalloc(s.e, size)
	m.Store64(buf, uint64(tick))
	delay := 12
	if s.rng.Intn(8) == 0 {
		delay = 130
	}
	s.journals[tick+delay] = append(s.journals[tick+delay], buf)
}

func (s *ftpState) releaseJournals(tick int) {
	m := s.m
	for _, buf := range s.journals[tick] {
		_ = checksum(m, buf, 48) // apply the deferred rename
		if err := s.e.Alloc.Free(buf); err != nil {
			machine.Abort("proftpd: release journal: %v", err)
		}
	}
	delete(s.journals, tick)
}
