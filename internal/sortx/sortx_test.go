package sortx

import (
	"slices"
	"testing"
	"testing/quick"
)

// keySorts are the kernel's cold sorts, wrapped to sort in place.
var keySorts = map[string]func([]Key){
	"InsertionKeys": InsertionKeys,
	"RadixKeys": func(keys []Key) {
		copy(keys, RadixKeys(keys, make([]Key, len(keys))))
	},
}

// checkKeySorts runs every key sort on keys built from pos and compares it
// with a comparison sort under the (Bits, Idx) order.
func checkKeySorts(t *testing.T, pos []float64) {
	t.Helper()
	want := keysFrom(pos)
	slices.SortFunc(want, keyCmp)
	for name, sort := range keySorts {
		got := keysFrom(pos)
		sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: %v sorted to %v, want %v", name, pos, got, want)
		}
	}
}

func TestAlreadySorted(t *testing.T) {
	checkKeySorts(t, []float64{-3, -1, 0, 0, 2, 5, 9})
}

func TestReverseSorted(t *testing.T) {
	checkKeySorts(t, []float64{9, 5, 2, 0, 0, -1, -3})
}

// TestDuplicates: ties keep build order, above and below the insertion
// threshold.
func TestDuplicates(t *testing.T) {
	for _, n := range []int{InsertionThreshold, 300} {
		pos := make([]float64, n)
		for i := range pos {
			pos[i] = float64((i * 7) % 5)
		}
		checkKeySorts(t, pos)
	}
}

// TestInsertionSortsProperty is a property-based test: every key sort
// produces the canonical (Bits, Idx) order of any NaN-free input.
func TestInsertionSortsProperty(t *testing.T) {
	f := func(pos []float64) bool {
		for _, v := range pos {
			if v != v {
				return true // the kernel rejects NaN breakpoints
			}
		}
		want := keysFrom(pos)
		slices.SortFunc(want, keyCmp)
		for _, sort := range keySorts {
			got := keysFrom(pos)
			sort(got)
			if !slices.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkNearlySorted1000 measures the warm-start case: a sorted array
// with a handful of adjacent swaps, repaired by the budgeted insertion pass.
func BenchmarkNearlySorted1000(b *testing.B) {
	pos := make([]float64, 1000)
	for i := range pos {
		pos[i] = float64(i)
	}
	src := keysFrom(pos)
	for i := 0; i+1 < len(src); i += 101 {
		src[i], src[i+1] = src[i+1], src[i]
	}
	buf := make([]Key, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		InsertionBudgetKeys(buf)
	}
}
