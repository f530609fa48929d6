package rel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

// bitwiseSame compares two relations cell by cell with floats compared
// by bit pattern.
func bitwiseSame(t *testing.T, label string, a, b *Relation) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("%s: shape %dx%d != %dx%d", label, a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for j := range a.Cols {
		av, bv := a.Cols[j].Vector(), b.Cols[j].Vector()
		if av.Type() != bv.Type() {
			t.Fatalf("%s: col %d type %v != %v", label, j, av.Type(), bv.Type())
		}
		for i := 0; i < a.NumRows(); i++ {
			switch av.Type() {
			case bat.Float:
				if math.Float64bits(av.Floats()[i]) != math.Float64bits(bv.Floats()[i]) {
					t.Fatalf("%s: col %d row %d: %x != %x", label, j, i,
						math.Float64bits(av.Floats()[i]), math.Float64bits(bv.Floats()[i]))
				}
			case bat.Int:
				if av.Ints()[i] != bv.Ints()[i] {
					t.Fatalf("%s: col %d row %d: %d != %d", label, j, i, av.Ints()[i], bv.Ints()[i])
				}
			default:
				if av.Strings()[i] != bv.Strings()[i] {
					t.Fatalf("%s: col %d row %d: %q != %q", label, j, i, av.Strings()[i], bv.Strings()[i])
				}
			}
		}
	}
}

// spillCtx returns a context with a forced spill manager staging under
// a test temp dir, plus the manager for stats assertions.
func spillCtx(t *testing.T, workers int) (*exec.Ctx, *exec.Spill) {
	t.Helper()
	sp := exec.NewSpill(t.TempDir(), 0).Forced()
	t.Cleanup(sp.Cleanup)
	return exec.NewCtx(workers, nil, nil).WithSpill(sp), sp
}

// joinRels builds a probe/build pair with duplicate int keys (fan-out
// matches), a string attribute, and unmatched rows on both sides.
func joinRels(n, m int) (*Relation, *Relation) {
	rk := make([]int64, n)
	rv := make([]float64, n)
	rs := make([]string, n)
	for i := range rk {
		rk[i] = int64((i * 13) % (m + m/2)) // some keys miss the build side
		rv[i] = float64(i)*0.75 - 3
		rs[i] = fmt.Sprintf("p%d", i%11)
	}
	sk := make([]int64, m)
	sv := make([]float64, m)
	for j := range sk {
		sk[j] = int64(j % m) // duplicate-free here, fan-out via probe dups
		sv[j] = float64(j) * 1.5
	}
	r, err := New("r", Schema{
		{Name: "ka", Type: bat.Int}, {Name: "va", Type: bat.Float}, {Name: "ta", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(rk), bat.FromFloats(rv), bat.FromStrings(rs)})
	if err != nil {
		panic(err)
	}
	s, err := New("s", Schema{
		{Name: "kb", Type: bat.Int}, {Name: "vb", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(sk), bat.FromFloats(sv)})
	if err != nil {
		panic(err)
	}
	return r, s
}

// TestStreamAggSpillMatchesGroupBy drives the spilling accumulator one
// unaligned morsel at a time — the streaming grouped path — against the
// materializing GroupBy.
func TestStreamAggSpillMatchesGroupBy(t *testing.T) {
	aggs := []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Attr: "a", As: "sa"},
		{Func: Min, Attr: "b", As: "mb"},
	}
	n := 2*bat.SerialCutoff + 999
	r := aggRel(n, 1031)
	base, err := GroupBy(exec.New(4), r, []string{"k", "tag"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	kcol, _ := r.Col("k")
	tcol, _ := r.Col("tag")
	acol, _ := r.Col("a")
	bcol, _ := r.Col("b")
	ints := kcol.Vector().Ints()
	tags := tcol.Vector().Strings()
	af := acol.Vector().Floats()
	bf := bcol.Vector().Floats()

	c, sp := spillCtx(t, 4)
	sa, err := NewStreamAggCtx(c, "r", []string{"k", "tag"}, []bat.Type{bat.Int, bat.String}, aggs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; {
		hi := min(lo+1000, n)
		keys := []*bat.Vector{bat.NewIntVector(ints[lo:hi]), bat.NewStringVector(tags[lo:hi])}
		aggIn := [][]float64{nil, af[lo:hi], bf[lo:hi]}
		if err := sa.Consume(keys, aggIn, hi-lo); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	got, err := sa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	bitwiseSame(t, "streamagg spill", base, got)
	if st := sp.Stats(); st.SpilledBytes == 0 {
		t.Fatalf("streaming aggregation did not spill: %+v", st)
	}
}
