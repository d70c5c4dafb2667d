// The tar workload: an archiver streaming files into an archive buffer.
// Like gzip it is utility-shaped — a long byte/word copy loop with a
// handful of small allocations per file — but with a higher
// metadata-to-data ratio (one 512-byte header block per member).
//
// The bug is the classic tar header overflow: the name field is 100 bytes,
// and a member path longer than that (Buggy=true) is copied into the
// header without a bounds check, running past the end of the 512-byte
// header block.
package apps

import (
	"fmt"
	"math/rand"

	"safemem/internal/machine"
	"safemem/internal/vm"
)

const (
	tarSiteMain   = 0x405000
	tarSiteInit   = 0x405040
	tarSiteMember = 0x405080
	tarSiteHeader = 0x4050c0 // the overflowed header block
	tarSiteCopy   = 0x405100
)

var tarApp = &App{
	Name:        "tar",
	Description: "an archiving utility",
	PaperLOC:    34000,
	Class:       ClassOverflow,
	Run:         runTar,
}

const (
	tarFiles       = 20
	tarSourceBytes = 128 << 10
	tarArchiveSize = 128 << 10
	tarHeaderSize  = 512
	tarNameField   = 100
)

type tarState struct {
	e   *Env
	m   *machine.Machine
	rng *rand.Rand

	source  vm.VAddr // staged file contents
	archive vm.VAddr // output archive buffer
	arcOff  uint64
}

func runTar(e *Env, cfg Config) error {
	m := e.M
	defer enter(m, tarSiteMain)()
	s := &tarState{e: e, m: m, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x757374))}

	func() {
		defer enter(m, tarSiteInit)()
		s.source = mustMalloc(e, tarSourceBytes)
		s.archive = mustMalloc(e, tarArchiveSize)
		e.Root(s.source)
		e.Root(s.archive)
		// Stage the source data once, in page-long batched word runs.
		fillWords(m, s.source, tarSourceBytes/8, func(i uint64) uint64 {
			return i * 8 * 0x100000001b3
		})
	}()

	files := tarFiles * cfg.scale()
	for f := 0; f < files; f++ {
		s.addMember(f, cfg.Buggy && f == files-1)
	}
	return nil
}

// addMember archives one file: build its header, then copy its data.
func (s *tarState) addMember(f int, buggy bool) {
	m := s.m
	defer enter(m, tarSiteMember)()

	name := fmt.Sprintf("src/pkg/module%02d/object_file_%04d.o", f%7, f)
	if buggy {
		// The over-long member path of the crafted archive: long enough to
		// run past the end of the 512-byte header block itself.
		long := make([]byte, 0, 560)
		for len(long) < 560 {
			long = append(long, []byte("deeply/nested/path/")...)
		}
		name = string(long[:560])
	}
	size := uint64(232<<10 + s.rng.Intn(5)*8<<10)
	s.writeHeader(name, size)
	s.copyData(size)
}

// writeHeader fills a freshly allocated 512-byte header block: name field,
// numeric fields in octal, and the field checksum — then flushes it into
// the archive and frees it. The name copy has no bounds check.
func (s *tarState) writeHeader(name string, size uint64) {
	m := s.m
	defer enter(m, tarSiteHeader)()

	hdr := mustMalloc(s.e, tarHeaderSize)
	m.Memset(hdr, 0, tarHeaderSize)
	// strcpy(hdr->name, name): past 100 bytes this silently tramples the
	// mode/uid/gid fields, and past 512 the block itself (Buggy inputs).
	storeBytes(m, hdr, []byte(name))
	writeOctal := func(off uint64, width int, v uint64) {
		for i := 0; i < width; i++ {
			m.Store8(hdr+vm.VAddr(off+uint64(width-1-i)), byte('0'+v&7))
			v >>= 3
		}
	}
	writeOctal(100, 7, 0o644)          // mode
	writeOctal(108, 7, 1000)           // uid
	writeOctal(116, 7, 1000)           // gid
	writeOctal(124, 11, size)          // size
	writeOctal(136, 11, 1_700_000_000) // mtime

	// Header checksum over all 512 bytes, read as one batched byte run.
	var hb [tarHeaderSize]byte
	m.LoadByteRun(hdr, hb[:])
	var sum uint64
	for _, b := range hb {
		sum += uint64(b)
	}
	writeOctal(148, 7, sum)

	// Flush into the archive.
	if s.arcOff+tarHeaderSize > tarArchiveSize {
		s.arcOff = 0
	}
	m.Memcpy(s.archive+vm.VAddr(s.arcOff), hdr, tarHeaderSize)
	s.arcOff += tarHeaderSize

	if err := s.e.Alloc.Free(hdr); err != nil {
		machine.Abort("tar: free header: %v", err)
	}
}

// copyData streams size bytes of member data into the archive, 512-byte
// block at a time, padding the final block — the access-dominated bulk of
// tar's work.
func (s *tarState) copyData(size uint64) {
	m := s.m
	defer enter(m, tarSiteCopy)()
	srcOff := uint64(s.rng.Intn(4)) * 8 << 10 // wraps over the staged source
	for copied := uint64(0); copied < size; copied += tarHeaderSize {
		if s.arcOff+tarHeaderSize > tarArchiveSize {
			s.arcOff = 0
		}
		n := size - copied
		if n > tarHeaderSize {
			n = tarHeaderSize
		}
		src := s.source + vm.VAddr((srcOff+copied)%(tarSourceBytes-tarHeaderSize))
		m.Memcpy(s.archive+vm.VAddr(s.arcOff), src, n&^7)
		if n < tarHeaderSize {
			m.Memset(s.archive+vm.VAddr(s.arcOff)+vm.VAddr(n&^7), 0, tarHeaderSize-n&^7)
		}
		s.arcOff += tarHeaderSize
	}
	m.Compute(9000)
}
