package bench

import (
	"errors"
	"sync/atomic"
	"testing"

	"safemem/internal/apps"
)

// TestRunCells checks the worker-pool cell dispatcher: every cell runs
// exactly once at any worker count, and the reported error is the
// lowest-indexed one, matching a sequential sweep.
func TestRunCells(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		var ran [40]atomic.Uint32
		if err := runCells("test", workers, len(ran), func(i int) error {
			ran[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, n)
			}
		}
	}

	errA, errB := errors.New("cell 3"), errors.New("cell 17")
	err := runCells("test", 8, 40, func(i int) error {
		switch i {
		case 3:
			return errA
		case 17:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("runCells error = %v, want lowest-indexed (%v)", err, errA)
	}
}

// TestParallelMatrixDeterminism pins the contract of the parallel bench
// matrix: the rendered tables are byte-identical at any worker count,
// because each cell owns a fresh machine and rows are assembled in order.
func TestParallelMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Table 4/5 matrices twice")
	}
	defer func(old int) { Parallel = old }(Parallel)
	cfg := apps.Config{Seed: 42}

	render := func() string {
		t4, err := RunTable4(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t5, err := RunTable5(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return RenderTable4(t4) + "\n" + RenderTable5(t5)
	}

	Parallel = 1
	sequential := render()
	Parallel = 4
	parallel := render()
	if sequential != parallel {
		t.Errorf("parallel output diverges from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", sequential, parallel)
	}
}
