package conc

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, w := range []int{0, 1, 2, 8, 64} {
		n := 1000
		marks := make([]int32, n)
		ParallelFor(Workers(w), n, func(i int) { atomic.AddInt32(&marks[i], 1) })
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, m)
			}
		}
	}
}

func TestParallelForEmptyAndNegative(t *testing.T) {
	ran := false
	ParallelFor(4, 0, func(int) { ran = true })
	ParallelFor(4, -1, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for empty index space")
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit count not honoured")
	}
	if Workers(0) < 1 {
		t.Error("default must be at least 1")
	}
}

func TestFirstError(t *testing.T) {
	e1, e2 := errors.New("a"), errors.New("b")
	if FirstError([]error{nil, nil}) != nil {
		t.Error("nil slice of nils")
	}
	if FirstError([]error{nil, e1, e2}) != e1 {
		t.Error("want first error in index order")
	}
}
