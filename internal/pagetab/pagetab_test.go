package pagetab

import "testing"

func TestTableStoreLoadClear(t *testing.T) {
	var tab Table[int]
	if tab.At(5) != nil || tab.Get(5) != 0 || tab.Leaves() != 0 {
		t.Fatal("a fresh table holds entries")
	}
	*tab.Slot(5) = 50
	*tab.Slot(LeafLen + 1) = 51
	*tab.Slot(3*LeafLen + 7) = 52
	if tab.Leaves() != 3 {
		t.Fatalf("Leaves = %d, want 3", tab.Leaves())
	}
	if tab.Get(5) != 50 || tab.Get(LeafLen+1) != 51 || tab.Get(3*LeafLen+7) != 52 {
		t.Fatal("stored values do not read back")
	}
	if tab.At(2*LeafLen) != nil {
		t.Fatal("a never-stored leaf reads as allocated")
	}
	if tab.Get(6) != 0 || tab.Get(1<<40) != 0 {
		t.Fatal("unstored entries are not zero")
	}
	var got []uint64
	tab.Range(func(i uint64, v *int) bool {
		if *v != 0 {
			got = append(got, i)
		}
		return true
	})
	if len(got) != 3 || got[0] != 5 || got[1] != LeafLen+1 || got[2] != 3*LeafLen+7 {
		t.Fatalf("Range visited %v", got)
	}
	p := tab.At(5)
	tab.Clear()
	if tab.Leaves() != 3 || *p != 0 || tab.Get(3*LeafLen+7) != 0 {
		t.Fatal("Clear must zero every entry and keep the leaves")
	}
	*tab.Slot(5) = 1
	if *p != 1 || tab.Leaves() != 3 {
		t.Fatal("a cleared table must reuse its leaves")
	}
}

func TestTableSlotBeyondMaxIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Slot(MaxIndex) did not panic")
		}
	}()
	var tab Table[byte]
	tab.Slot(MaxIndex)
}
