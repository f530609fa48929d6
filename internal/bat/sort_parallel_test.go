package bat

import (
	"math/rand"
	"sort"
	"testing"
)

// refStablePerm is the single-goroutine reference permutation the parallel
// merge sort is pinned against.
func refStablePerm(n int, less func(a, b int) bool) []int {
	idx := make([]int, n)
	for k := range idx {
		idx[k] = k
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	return idx
}

func permsEqual(t *testing.T, name string, n, workers int, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s n=%d workers=%d: length %d vs %d", name, n, workers, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s n=%d workers=%d: position %d = %d, want %d", name, n, workers, k, got[k], want[k])
		}
	}
}

// TestSortIndexIdenticalAcrossWorkers asserts the merge-sorted permutation
// over a duplicate-heavy float key is identical to the serial stable sort
// at worker budgets 1, 2, and 8, across the chunk-boundary sizes. Run with
// -race this also exercises the parallel run sorts and merges.
func TestSortIndexIdenticalAcrossWorkers(t *testing.T) {
	for _, n := range chunkBoundarySizes() {
		rng := rand.New(rand.NewSource(int64(n)))
		f := make([]float64, n)
		for k := range f {
			f[k] = float64(rng.Intn(97)) / 3 // heavy duplication → stability matters
		}
		want := refStablePerm(n, func(a, b int) bool { return f[a] < f[b] })
		b := FromFloats(f)
		for _, workers := range []int{1, 2, 8} {
			withParallelism(workers, func() {
				idx := SortIndex(nil, []*BAT{b})
				permsEqual(t, "sortindex-float", n, workers, idx, want)
				FreeInts(idx)
			})
		}
	}
}

// TestSortIndexMultiKeyIdenticalAcrossWorkers covers the multi-key
// comparator path (int then string) above the serial cutoff.
func TestSortIndexMultiKeyIdenticalAcrossWorkers(t *testing.T) {
	n := SerialCutoff + 1
	rng := rand.New(rand.NewSource(42))
	ints := make([]int64, n)
	strs := make([]string, n)
	tags := []string{"p", "q", "r", "s"}
	for k := range ints {
		ints[k] = int64(rng.Intn(5))
		strs[k] = tags[rng.Intn(len(tags))]
	}
	bi, bs := FromInts(ints), FromStrings(strs)
	want := refStablePerm(n, func(a, b int) bool {
		if ints[a] != ints[b] {
			return ints[a] < ints[b]
		}
		return strs[a] < strs[b]
	})
	for _, workers := range []int{1, 2, 8} {
		withParallelism(workers, func() {
			idx := SortIndex(nil, []*BAT{bi, bs})
			permsEqual(t, "sortindex-multikey", n, workers, idx, want)
			FreeInts(idx)
		})
	}
}

// TestSortStableIsStable verifies the defining property directly: among
// equal keys, original positions stay ascending — at sizes on both sides
// of the parallel boundary.
func TestSortStableIsStable(t *testing.T) {
	for _, n := range []int{SerialCutoff - 1, SerialCutoff + 1, 3*SerialCutoff + 17} {
		keys := make([]int64, n)
		for k := range keys {
			keys[k] = int64(k % 7)
		}
		withParallelism(8, func() {
			idx := SortIndex(nil, []*BAT{FromInts(keys)})
			for k := 1; k < n; k++ {
				ka, kb := keys[idx[k-1]], keys[idx[k]]
				if ka > kb {
					t.Fatalf("n=%d: not sorted at %d", n, k)
				}
				if ka == kb && idx[k-1] > idx[k] {
					t.Fatalf("n=%d: stability violated at %d: %d before %d", n, k, idx[k-1], idx[k])
				}
			}
			FreeInts(idx)
		})
	}
}
