package physmem

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) succeeded")
	}
	if _, err := New(100); err == nil {
		t.Error("New(100) (not line multiple) succeeded")
	}
	m, err := New(4096)
	if err != nil {
		t.Fatalf("New(4096): %v", err)
	}
	if m.Size() != 4096 || m.Lines() != 64 {
		t.Fatalf("size=%d lines=%d", m.Size(), m.Lines())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(3) did not panic")
		}
	}()
	MustNew(3)
}

func TestRawRoundTrip(t *testing.T) {
	m := MustNew(1024)
	m.WriteGroupRaw(64, 0xdead, 0x5a)
	d, c := m.ReadGroupRaw(64)
	if d != 0xdead || c != 0x5a {
		t.Fatalf("got %#x/%#x", d, c)
	}
}

func TestWriteGroupDataOnlyPreservesCheck(t *testing.T) {
	m := MustNew(1024)
	m.WriteGroupRaw(0, 1, 0x77)
	m.WriteGroupDataOnly(0, 2)
	d, c := m.ReadGroupRaw(0)
	if d != 2 {
		t.Fatalf("data = %d, want 2", d)
	}
	if c != 0x77 {
		t.Fatalf("check changed to %#x, want 0x77", c)
	}
}

func TestFlipBits(t *testing.T) {
	m := MustNew(1024)
	m.WriteGroupRaw(8, 0, 0)
	m.FlipDataBit(8, 3)
	m.FlipCheckBit(8, 1)
	d, c := m.ReadGroupRaw(8)
	if d != 8 || c != 2 {
		t.Fatalf("got %#x/%#x, want 0x8/0x2", d, c)
	}
	m.FlipDataBit(8, 3)
	d, _ = m.ReadGroupRaw(8)
	if d != 0 {
		t.Fatal("double flip did not restore")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := MustNew(64)
	for _, f := range []func(){
		func() { m.ReadGroupRaw(64) },
		func() { m.WriteGroupRaw(128, 0, 0) },
		func() { m.ReadGroupRaw(4) }, // unaligned
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(64*3 + 8*5 + 3)
	if a.LineAddr() != 192 {
		t.Errorf("LineAddr = %d", a.LineAddr())
	}
	if a.LineOffset() != 43 {
		t.Errorf("LineOffset = %d", a.LineOffset())
	}
	if a.GroupAddr() != 192+40 {
		t.Errorf("GroupAddr = %d", a.GroupAddr())
	}
	if a.GroupInLine() != 5 {
		t.Errorf("GroupInLine = %d", a.GroupInLine())
	}
	if a.IsLineAligned() {
		t.Error("unaligned address reported aligned")
	}
	if !Addr(256).IsLineAligned() {
		t.Error("aligned address reported unaligned")
	}
}

func TestQuickAddrDecomposition(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw)
		return uint64(a.LineAddr())+a.LineOffset() == uint64(a) &&
			a.GroupAddr() >= a.LineAddr() &&
			a.GroupInLine() >= 0 && a.GroupInLine() < GroupsPerLine
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRawStorageIsExact(t *testing.T) {
	m := MustNew(1 << 16)
	f := func(off uint16, data uint64, check uint8) bool {
		a := Addr(off).GroupAddr()
		m.WriteGroupRaw(a, data, check)
		d, c := m.ReadGroupRaw(a)
		return d == data && c == check
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
