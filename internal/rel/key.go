package rel

import (
	"math"

	"repro/internal/bat"
	"repro/internal/exec"
)

// This file implements typed multi-column row keys for the hash-based
// relational operators (HashJoin, GroupBy, Distinct). Rows are identified
// by a 64-bit hash computed from typed cell values — no per-row string
// materialization — and candidate collisions are resolved by comparing the
// key columns directly. Cells are hashed in isolation (strings contribute
// their length through the byte-wise FNV walk, numerics contribute a fixed
// 8-byte word), so composite keys cannot collide through embedded
// separator bytes the way the former NUL-joined string keys could.

// keyCols binds typed views of a relation's key columns. Sparse float
// columns are densified once at construction so the per-row accessors are
// branch-free slice reads; those densified buffers come from the
// per-query arena and are the only views keyCols owns, so every operator
// that builds a keyCols hands them back with release once the hashes and
// collision comparisons are done.
type keyCols struct {
	n     int
	f     [][]float64 // non-nil for Float columns (and densified sparse tails)
	i     [][]int64   // non-nil for Int columns
	s     [][]string  // non-nil for String columns
	owned [][]float64 // densified sparse tails drawn from the arena

	// int1 is the key's only column when that column is Int: the common
	// single integer key compares without the per-column type walk.
	int1 []int64
}

// setInt1 refreshes int1 after kc's columns change.
func (kc *keyCols) setInt1() {
	kc.int1 = nil
	if len(kc.i) == 1 {
		kc.int1 = kc.i[0]
	}
}

// release returns the densified sparse-key buffers to the context's
// arena. The keyCols (and any row accessor derived from it) must not be
// used afterwards. Dense column views are borrowed, not owned, and are
// untouched. Nil-safe.
func (kc *keyCols) release(c *exec.Ctx) {
	if kc == nil {
		return
	}
	for _, f := range kc.owned {
		c.Arena().FreeFloats(f)
	}
	kc.owned = nil
}

// newKeyCols resolves the named attributes of r into typed key views.
func newKeyCols(c *exec.Ctx, r *Relation, attrs []string) (*keyCols, error) {
	cols := make([]*bat.BAT, len(attrs))
	for k, a := range attrs {
		col, err := r.Col(a)
		if err != nil {
			return nil, err
		}
		cols[k] = col
	}
	return keyColsOf(c, r.NumRows(), cols), nil
}

// keyColsOf builds typed key views over already-resolved columns.
func keyColsOf(c *exec.Ctx, n int, cols []*bat.BAT) *keyCols {
	kc := &keyCols{
		n: n,
		f: make([][]float64, len(cols)),
		i: make([][]int64, len(cols)),
		s: make([][]string, len(cols)),
	}
	for k, col := range cols {
		if col.IsSparse() {
			kc.f[k] = col.Sparse().Densify(c)
			kc.owned = append(kc.owned, kc.f[k])
			continue
		}
		v := col.Vector()
		switch v.Type() {
		case bat.Float:
			kc.f[k] = v.Floats()
		case bat.Int:
			kc.i[k] = v.Ints()
		case bat.String:
			kc.s[k] = v.Strings()
		}
	}
	kc.setInt1()
	return kc
}

// newKeyColsOfTypes returns an empty key table with one column per key
// type, grown row by row with appendRow (the grouping accumulators'
// representative keys).
func newKeyColsOfTypes(types []bat.Type) keyCols {
	return keyCols{
		f: make([][]float64, len(types)),
		i: make([][]int64, len(types)),
		s: make([][]string, len(types)),
	}
}

// bindVectors points kc at the typed backing slices of n-row vectors,
// reusing kc's column tables.
func (kc *keyCols) bindVectors(vecs []*bat.Vector, n int) {
	if len(kc.f) != len(vecs) {
		*kc = newKeyColsOfTypes(make([]bat.Type, len(vecs)))
	}
	kc.n = n
	for k, v := range vecs {
		kc.f[k], kc.i[k], kc.s[k] = nil, nil, nil
		switch v.Type() {
		case bat.Float:
			kc.f[k] = v.Floats()
		case bat.Int:
			kc.i[k] = v.Ints()
		default:
			kc.s[k] = v.Strings()
		}
	}
	kc.setInt1()
}

// appendRow appends row i of src (same column types) as kc's next row.
func (kc *keyCols) appendRow(src *keyCols, i int) {
	for k := range kc.f {
		switch {
		case src.f[k] != nil:
			kc.f[k] = append(kc.f[k], src.f[k][i])
		case src.i[k] != nil:
			kc.i[k] = append(kc.i[k], src.i[k][i])
		default:
			kc.s[k] = append(kc.s[k], src.s[k][i])
		}
	}
	kc.n++
	kc.setInt1()
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// canonBits returns the canonical bit pattern of a float key value: both
// zeros map to +0 and every NaN maps to one quiet NaN, so hashing and
// equality agree with IEEE equality (extended with NaN = NaN, which keeps
// NaN keys joinable like any other value).
func canonBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return 0x7ff8_0000_0000_0001
	}
	return math.Float64bits(f)
}

// mix64 is the splitmix64 finalizer: it spreads the combined cell hashes
// over all 64 bits so the partition selector can use the low bits.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// fnvHalf folds the low four bytes of w into an FNV-1a state, low byte
// first; two calls fold a whole 8-byte word.
func fnvHalf(h, w uint64) uint64 {
	h = (h ^ (w & 0xff)) * fnvPrime64
	h = (h ^ (w >> 8 & 0xff)) * fnvPrime64
	h = (h ^ (w >> 16 & 0xff)) * fnvPrime64
	return (h ^ (w >> 24 & 0xff)) * fnvPrime64
}

// hashInto writes the composite key hash of rows [lo, hi) to h[lo:hi],
// one typed loop per key column. Numeric cells hash through their
// canonical float bits so an Int key column hashes identically to a
// Float key column holding the same values (cross-type equi-joins land
// in the same bucket; exactness is restored by equal).
func (kc *keyCols) hashInto(h []uint64, lo, hi int) {
	h = h[lo:hi]
	for i := range h {
		h[i] = fnvOffset64
	}
	for k := range kc.f {
		switch {
		case kc.f[k] != nil:
			f := kc.f[k][lo:hi]
			for i, x := range f {
				w := canonBits(x)
				h[i] = fnvHalf(fnvHalf(h[i], w), w>>32)
			}
		case kc.i[k] != nil:
			xs := kc.i[k][lo:hi]
			for i, x := range xs {
				w := canonBits(float64(x))
				h[i] = fnvHalf(fnvHalf(h[i], w), w>>32)
			}
		case kc.s[k] != nil:
			ss := kc.s[k][lo:hi]
			for i, s := range ss {
				hv := h[i]
				for b := 0; b < len(s); b++ {
					hv = (hv ^ uint64(s[b])) * fnvPrime64
				}
				// Terminate the cell with its length so cell boundaries
				// cannot be shifted between adjacent string keys.
				h[i] = fnvHalf(fnvHalf(hv, uint64(len(s))), uint64(len(s))>>32)
			}
		}
	}
	for i := range h {
		h[i] = mix64(h[i])
	}
}

// hashes computes the key hash of every row, decomposed over the
// context's workers.
func (kc *keyCols) hashes(c *exec.Ctx) []uint64 {
	h := make([]uint64, kc.n)
	c.ParallelFor(kc.n, bat.SerialCutoff, func(lo, hi int) {
		kc.hashInto(h, lo, hi)
	})
	return h
}

// equal reports whether row i of kc and row j of other hold the same
// composite key. Numeric columns compare through their canonical float
// bits (Int against Int compares exactly); string columns compare bytes;
// a string column never equals a numeric one.
func (kc *keyCols) equal(i int, other *keyCols, j int) bool {
	if a, b := kc.int1, other.int1; a != nil && b != nil {
		return a[i] == b[j]
	}
	return kc.equalCols(i, other, j)
}

func (kc *keyCols) equalCols(i int, other *keyCols, j int) bool {
	for k := range kc.f {
		switch {
		case kc.i[k] != nil && other.i[k] != nil:
			if kc.i[k][i] != other.i[k][j] {
				return false
			}
		case kc.s[k] != nil || other.s[k] != nil:
			if kc.s[k] == nil || other.s[k] == nil {
				return false
			}
			if kc.s[k][i] != other.s[k][j] {
				return false
			}
		default:
			a := numAt(kc, k, i)
			b := numAt(other, k, j)
			if canonBits(a) != canonBits(b) {
				return false
			}
		}
	}
	return true
}

// numAt reads the numeric cell (k, i) as a float64.
func numAt(kc *keyCols, k, i int) float64 {
	if kc.f[k] != nil {
		return kc.f[k][i]
	}
	return float64(kc.i[k][i])
}
