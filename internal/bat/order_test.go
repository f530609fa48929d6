package bat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
)

// refCompareFloat spells out the float total order Order documents:
// NaN after every number and tied with other NaNs, -0 tied with +0.
func refCompareFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// orderCase is one key configuration of the Order property test: the
// key columns, their directions, and a plain-Go row comparator over the
// raw values that the reference sort uses.
type orderCase struct {
	name string
	keys []*BAT
	desc []bool
	cmp  func(a, b int) int
}

func orderCases(n int, seed int64) []orderCase {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]float64, n) // heavy ties, NaN and both zeros
	is := make([]int64, n)   // five distinct values
	ss := make([]string, n)  // four distinct values
	sp := make([]float64, n) // mostly zero: a sparse tail
	for i := 0; i < n; i++ {
		switch r := rng.Intn(20); {
		case r == 0:
			fs[i] = math.NaN()
		case r == 1:
			fs[i] = math.Copysign(0, -1)
		case r == 2:
			fs[i] = 0
		default:
			fs[i] = float64(rng.Intn(9)) - 4
		}
		is[i] = int64(rng.Intn(5))
		ss[i] = []string{"", "a", "ab", "b"}[rng.Intn(4)]
		if rng.Intn(10) == 0 {
			sp[i] = float64(rng.Intn(3) + 1)
		}
	}
	return []orderCase{
		{"float", []*BAT{FromFloats(fs)}, nil,
			func(a, b int) int { return refCompareFloat(fs[a], fs[b]) }},
		{"float-desc", []*BAT{FromFloats(fs)}, []bool{true},
			func(a, b int) int { return -refCompareFloat(fs[a], fs[b]) }},
		{"int-float", []*BAT{FromInts(is), FromFloats(fs)}, []bool{false, true},
			func(a, b int) int {
				if is[a] != is[b] {
					return int(is[a] - is[b])
				}
				return -refCompareFloat(fs[a], fs[b])
			}},
		{"string-desc-int", []*BAT{FromStrings(ss), FromInts(is)}, []bool{true, false},
			func(a, b int) int {
				if r := strings.Compare(ss[a], ss[b]); r != 0 {
					return -r
				}
				return int(is[a] - is[b])
			}},
		{"sparse", []*BAT{FromSparse(Compress(sp))}, nil,
			func(a, b int) int { return refCompareFloat(sp[a], sp[b]) }},
	}
}

// TestOrderTopKMatchesReference pins Order, with and without a limit, to
// a plain sort.SliceStable over the raw values followed by truncation:
// at sizes around the chunk boundary, limits that take the heap path
// and the full sort's prefix, heavy ties, both directions, mixed-type
// multi-key orders, NaN and signed zeros, and workers 1, 2 and 8. Every
// call runs on an accounted arena that must hold no live bytes after
// the permutation is handed back.
func TestOrderTopKMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, SerialCutoff - 1, SerialCutoff + 1, 3*SerialCutoff + 7} {
		for _, oc := range orderCases(n, int64(n)) {
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return oc.cmp(want[a], want[b]) < 0 })
			for _, limit := range []int{0, 1, 10, topKMax, n - 1, n, n + 5, -1} {
				ref := want
				if limit >= 0 && limit < n {
					ref = want[:limit]
				}
				for _, workers := range []int{1, 2, 8} {
					g := exec.NewGovernor(0, 0)
					tn := g.Tenant("order", 0)
					a := tn.NewArena()
					c := exec.NewCtx(workers, a, nil)
					got := Order(c, oc.keys, oc.desc, limit)
					name := fmt.Sprintf("%s limit=%d", oc.name, limit)
					permsEqual(t, name, n, workers, got, ref)
					c.Arena().FreeInts(got)
					if live := tn.LiveBytes(); live != 0 {
						t.Fatalf("%s n=%d workers=%d: %d live arena bytes after FreeInts", name, n, workers, live)
					}
					a.Close()
				}
			}
		}
	}
}

// TestOrderSortedPreScan: keys already in order return the identity
// prefix, ascending and descending alike.
func TestOrderSortedPreScan(t *testing.T) {
	n := 2*SerialCutoff + 3
	up := make([]int64, n)
	for i := range up {
		up[i] = int64(i / 3)
	}
	down := make([]float64, n)
	for i := range down {
		down[i] = float64(n - i)
	}
	down[0] = math.NaN() // NaN orders last ascending, so first descending
	for _, tc := range []struct {
		key  *BAT
		desc bool
		sort bool
	}{{FromInts(up), false, true}, {FromFloats(down), true, true}, {FromFloats(down), false, false}} {
		got := Order(exec.NewCtx(2, nil, nil), []*BAT{tc.key}, []bool{tc.desc}, 5)
		if IsSortedIndex(got) != tc.sort {
			t.Fatalf("desc=%v: got %v, identity expected %v", tc.desc, got, tc.sort)
		}
		FreeInts(got)
	}
}
