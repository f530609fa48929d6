package rel

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
)

// TestHashJoinAllocs bounds the heap allocations of one HashJoin at
// 131,072 x 131,072 rows of random int keys. The flat build table costs
// a handful of allocations per shard, where a map-based table allocates
// per distinct key (over 100k here).
func TestHashJoinAllocs(t *testing.T) {
	const n = 131072
	rng := rand.New(rand.NewSource(1))
	mk := func(name string) *Relation {
		keys := make([]int64, n)
		vals := make([]float64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(n))
			vals[i] = float64(i)
		}
		return MustNew(name, Schema{{Name: name + "_k", Type: bat.Int}, {Name: name + "_v", Type: bat.Float}},
			[]*bat.BAT{bat.FromInts(keys), bat.FromFloats(vals)})
	}
	l, r := mk("l"), mk("r")
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := HashJoin(nil, l, r, []string{"l_k"}, []string{"r_k"}, Inner); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("HashJoin made %.0f allocations, want at most 1000", allocs)
	}
	t.Logf("HashJoin: %.0f allocations", allocs)
}

// TestKeyHashIsBytewiseFNV pins the typed key hash to its definition:
// FNV-1a over each cell's bytes (numerics as the 8 little-endian bytes
// of their canonical float bits, strings as their bytes then their
// 8-byte length), finished by mix64.
func TestKeyHashIsBytewiseFNV(t *testing.T) {
	ints := []int64{0, -1, 7, 1 << 53, -(1 << 62)}
	floats := []float64{0, -0.0, 1.5, 7, -1e300}
	strs := []string{"", "a", "ab", "\x00\xff", "grp"}
	kc := keyColsOf(nil, len(ints), []*bat.BAT{bat.FromInts(ints), bat.FromFloats(floats), bat.FromStrings(strs)})
	got := kc.hashes(nil)
	for i := range ints {
		h := uint64(fnvOffset64)
		word := func(w uint64) {
			for b := 0; b < 64; b += 8 {
				h = (h ^ (w >> b & 0xff)) * fnvPrime64
			}
		}
		word(canonBits(float64(ints[i])))
		word(canonBits(floats[i]))
		for b := 0; b < len(strs[i]); b++ {
			h = (h ^ uint64(strs[i][b])) * fnvPrime64
		}
		word(uint64(len(strs[i])))
		if want := mix64(h); got[i] != want {
			t.Fatalf("row %d: hash %#x, want %#x", i, got[i], want)
		}
	}
}
