package vm

import (
	"slices"
	"testing"
)

// TestRestoreImageFreeFrameTail pins the free-list tail restore: after maps,
// unmaps in a different order (which push frames back in a new order) and a
// migration, RestoreImage must land exactly on the captured free list, both
// for the image the low-water mark tracks and for an older one.
func TestRestoreImageFreeFrameTail(t *testing.T) {
	as, _ := newAS(16)
	if err := as.Map(0, 2, ProtRW); err != nil {
		t.Fatal(err)
	}
	img := as.CaptureImage()
	want := slices.Clone(as.frames)

	churn := func() {
		if err := as.Map(0x10000, 3, ProtRW); err != nil {
			t.Fatal(err)
		}
		for _, va := range []VAddr{0x10000, 0x12000, 0x11000} {
			if err := as.Unmap(va, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := as.Map(0x20000, 4, ProtRW); err != nil {
			t.Fatal(err)
		}
		if _, _, err := as.MigratePage(0); err != nil {
			t.Fatal(err)
		}
	}
	restore := func(step string) {
		as.RestoreImage(img)
		if !slices.Equal(as.frames, want) {
			t.Fatalf("%s: free list after restore = %#x, want %#x", step, as.frames, want)
		}
	}

	churn()
	restore("first restore")
	churn()
	restore("second restore")
	// A newer capture moves the low-water mark to its own image; restoring
	// the older one must then rewrite the whole list. Mapping six pages and
	// unmapping them in mapping order reverses the list's tail below the
	// mark the newer image starts from.
	churn()
	if err := as.Map(0x40000, 6, ProtRW); err != nil {
		t.Fatal(err)
	}
	for i := VAddr(0); i < 6; i++ {
		if err := as.Unmap(0x40000+i*PageBytes, 1); err != nil {
			t.Fatal(err)
		}
	}
	as.CaptureImage()
	if err := as.Map(0x30000, 2, ProtRW); err != nil {
		t.Fatal(err)
	}
	restore("restore of an older image")
	churn()
	restore("restore after an older image")
}
