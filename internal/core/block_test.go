package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/rel"
)

// blockRel builds a relation with an int key K and nApp float
// application columns, rows added in shuffled key order so the sort
// permutation is exercised by the tiled materialization.
func blockRel(rows, nApp int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	schema := rel.Schema{{Name: "K", Type: bat.Int}}
	for j := 0; j < nApp; j++ {
		schema = append(schema, rel.Attr{Name: "x" + string(rune('a'+j)), Type: bat.Float})
	}
	b := rel.NewBuilder("r", schema)
	perm := rng.Perm(rows)
	for _, k := range perm {
		vals := []bat.Value{bat.IntValue(int64(k))}
		for j := 0; j < nApp; j++ {
			v := (rng.Float64() - 0.5) * 10
			if rng.Intn(8) == 0 {
				v = 0
			}
			vals = append(vals, bat.FloatValue(v))
		}
		b.MustAdd(vals...)
	}
	return b.Relation()
}

// runBoth runs op with the blocked materialization forced on and
// forced off and asserts the two result relations are bitwise
// identical, returning the flat-path result.
func runBoth(t *testing.T, name string, op func() (*rel.Relation, error)) {
	t.Helper()
	saved := blockedMinElems
	defer func() { blockedMinElems = saved }()

	blockedMinElems = 1 << 40 // flat route
	flat, err := op()
	if err != nil {
		t.Fatalf("%s flat: %v", name, err)
	}
	blockedMinElems = 1 // tiled route
	blocked, err := op()
	if err != nil {
		t.Fatalf("%s blocked: %v", name, err)
	}
	if flat.NumRows() != blocked.NumRows() || len(flat.Schema) != len(blocked.Schema) {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name,
			blocked.NumRows(), len(blocked.Schema), flat.NumRows(), len(flat.Schema))
	}
	for i := 0; i < flat.NumRows(); i++ {
		for j := range flat.Schema {
			fv, bv := flat.Value(i, j), blocked.Value(i, j)
			if fv.Type != bv.Type || fv.I != bv.I || fv.S != bv.S ||
				math.Float64bits(fv.F) != math.Float64bits(bv.F) {
				t.Fatalf("%s: cell (%d,%d) = %v blocked vs %v flat", name, i, j, bv, fv)
			}
		}
	}
}

// TestBlockedMaterializationBitwise: the tiled toBlockMatrix +
// blocked-kernel route through Mmu and Cpd (SYRK) must be
// bitwise-identical to the contiguous toMatrix + flat-kernel route.
func TestBlockedMaterializationBitwise(t *testing.T) {
	r := blockRel(97, 5, 1)
	s := blockRel(5, 3, 2) // inner dim: 5 app cols of r × 5 rows of s
	opts := &Options{Parallelism: 4}
	runBoth(t, "mmu", func() (*rel.Relation, error) {
		return Mmu(r, []string{"K"}, s, []string{"K"}, opts)
	})
	runBoth(t, "cpd-syrk", func() (*rel.Relation, error) {
		return Cpd(r, []string{"K"}, r, []string{"K"}, opts)
	})
}

// sameColumnBits asserts that the float columns of res after the
// leading context columns equal want bit for bit.
func sameColumnBits(t *testing.T, name string, res *rel.Relation, lead int, want *matrix.Matrix) {
	t.Helper()
	if res.NumRows() != want.Rows || res.NumCols()-lead != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, res.NumRows(), res.NumCols()-lead, want.Rows, want.Cols)
	}
	for j := 0; j < want.Cols; j++ {
		f, err := res.Cols[lead+j].Floats()
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range f {
			if math.Float64bits(x) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", name, i, j, x, want.At(i, j))
			}
		}
	}
}

// TestQRMatchesLinalgBitwise: Qqr and Rqr, which factor the ordered
// application columns in place, return exactly linalg.QQR and
// linalg.RQR of the sorted application matrix, at every worker
// budget, on a shuffled key so the gather through the sort
// permutation is exercised.
func TestQRMatchesLinalgBitwise(t *testing.T) {
	const m, n = 97, 5
	r := blockRel(m, n, 1)
	sorted := matrix.New(m, n)
	for i := 0; i < m; i++ {
		k := r.Cols[0].Get(i).I
		for j := 0; j < n; j++ {
			sorted.Set(int(k), j, r.Cols[1+j].Get(i).F)
		}
	}
	wantQ, err := linalg.QQR(nil, sorted)
	if err != nil {
		t.Fatal(err)
	}
	wantR, err := linalg.RQR(nil, sorted)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		opts := &Options{Parallelism: workers}
		q, err := Qqr(r, []string{"K"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameColumnBits(t, "qqr", q, 1, wantQ)
		rr, err := Rqr(r, []string{"K"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameColumnBits(t, "rqr", rr, 1, wantR)
	}
}

// TestQRPeakMemory: Qqr on the analytics benchmark's operand shape —
// above the 1<<22-element gate the tiled kernels use — charges its
// working columns once: they become the result, so the tenant's peak
// stays within the m·n floats of Q plus 1 MiB (the sort permutation).
// The result is exactly linalg.QQR of the same matrix.
func TestQRPeakMemory(t *testing.T) {
	const m, n = 131072, 32
	r := dataset.Uniform(m, n, 3)
	cols := make([][]float64, n)
	for j := range cols {
		f, err := r.Cols[1+j].Floats()
		if err != nil {
			t.Fatal(err)
		}
		cols[j] = f
	}
	want, err := linalg.QQR(nil, matrix.FromColumns(cols))
	if err != nil {
		t.Fatal(err)
	}
	st := &Stats{}
	q, err := Qqr(r, []string{"k"}, &Options{
		Tenant:   "qr-peak",
		Governor: exec.NewGovernor(0, 0),
		Stats:    st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(8*m*n + 1<<20); st.Arena.PeakBytes > limit {
		t.Errorf("Qqr peak = %d bytes, want <= %d", st.Arena.PeakBytes, limit)
	}
	sameColumnBits(t, "qqr", q, 1, want)
}
