package bat

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/exec"
)

// Order computes the stable sort permutation of the rows of the key
// columns: lexicographic over keys (first column most significant), key k
// descending when desc[k] is set (a nil or short desc means ascending),
// with ties kept in row order. This is the engine's one ordering kernel;
// SortIndex, rel.Sort and SQL ORDER BY all run through it.
//
// Floats follow a total order: NaN sorts after every number and ties
// with other NaNs, and -0 ties with +0. Ties broken by row position make
// the order over rows strict, so the permutation is unique and therefore
// identical at any worker budget.
//
// A limit with 0 <= limit < n returns only the first limit entries of
// the permutation. Small limits are selected by bounded per-chunk heaps
// over fixed chunks of SerialCutoff rows, run in parallel and merged in
// chunk order; larger ones take the full sort's prefix. Both are the
// prefix of the unique permutation, so the choice never shows in the
// result. A negative limit, or one of at least n, sorts everything.
//
// The returned buffer comes from the context's arena (its capacity may
// exceed limit); callers done with it hand it back with FreeInts.
func Order(c *exec.Ctx, keys []*BAT, desc []bool, limit int) []int {
	if len(keys) == 0 {
		return nil
	}
	n := keys[0].Len()
	o := newOrdering(c, keys, desc)
	defer o.release(c)
	if limit < 0 || limit > n {
		limit = n
	}
	// MonetDB tracks sortedness on BATs; one linear pre-scan buys the
	// same effect and turns sorts over already-ordered keys into no-ops —
	// before any permutation scratch is allocated.
	if limit == 0 || o.sorted(n) {
		return Identity(c, limit)
	}
	if limit <= topKMax && limit < n {
		return o.topK(c, n, limit)
	}
	return sortPerm(c, n, o.cmp)[:limit]
}

// topKMax is the largest limit Order selects with heaps. A heap that
// holds a large share of its chunk does most of a sort's work without
// its parallel merge, so larger limits take the full sort's prefix.
const topKMax = SerialCutoff / 8

// ordering is the typed row comparator Order builds over its key
// columns: cmp(a, b) compares rows a and b key by key, honouring each
// key's direction, and reports 0 when every key ties.
type ordering struct {
	cmp   func(a, b int) int
	dense [][]float64 // densified sparse keys, handed back by release
}

func newOrdering(c *exec.Ctx, keys []*BAT, desc []bool) *ordering {
	o := &ordering{}
	cmps := make([]func(a, b int) int, len(keys))
	for k, b := range keys {
		v := b.vec
		if b.IsSparse() {
			f := b.sp.Densify(c)
			o.dense = append(o.dense, f)
			v = NewFloatVector(f)
		}
		d := k < len(desc) && desc[k]
		switch v.typ {
		case Float:
			cmps[k] = keyCmp(v.f, CompareFloat, d)
		case Int:
			cmps[k] = keyCmp(v.i, cmp.Compare[int64], d)
		default:
			cmps[k] = keyCmp(v.s, strings.Compare, d)
		}
	}
	o.cmp = cmps[0]
	if len(cmps) > 1 {
		o.cmp = func(a, b int) int {
			for _, f := range cmps {
				if r := f(a, b); r != 0 {
					return r
				}
			}
			return 0
		}
	}
	return o
}

// keyCmp is the row comparator of one typed key column.
func keyCmp[T any](xs []T, compare func(x, y T) int, desc bool) func(a, b int) int {
	if desc {
		return func(a, b int) int { return compare(xs[b], xs[a]) }
	}
	return func(a, b int) int { return compare(xs[a], xs[b]) }
}

func (o *ordering) release(c *exec.Ctx) {
	for _, f := range o.dense {
		c.Arena().FreeFloats(f)
	}
}

// sorted reports whether rows [0, n) are already in order.
func (o *ordering) sorted(n int) bool {
	for i := 1; i < n; i++ {
		if o.cmp(i-1, i) > 0 {
			return false
		}
	}
	return true
}

// topK selects the first limit rows (0 <= limit < n) of the order. Each
// fixed chunk of SerialCutoff rows keeps its best rows in a bounded heap
// whose root is the worst row kept; the chunks' survivors, concatenated
// in chunk order, are then sorted and cut to limit. Every row of the
// answer survives its own chunk, so the cut is exact.
func (o *ordering) topK(c *exec.Ctx, n, limit int) []int {
	chunks := (n + SerialCutoff - 1) / SerialCutoff
	width := min(limit, SerialCutoff)
	heaps := c.Arena().Ints(chunks * width)
	sizes := make([]int, chunks)
	c.ParallelFor(chunks, 1, func(lo, hi int) {
		for ch := lo; ch < hi; ch++ {
			h := heaps[ch*width : ch*width : (ch+1)*width]
			for i := ch * SerialCutoff; i < min((ch+1)*SerialCutoff, n); i++ {
				switch {
				case len(h) < width:
					h = append(h, i)
					o.siftUp(h)
				case o.cmp(i, h[0]) < 0:
					// Rows arrive in ascending position, so a key tie
					// with the root never displaces it.
					h[0] = i
					o.siftDown(h)
				}
			}
			sizes[ch] = len(h)
		}
	})
	m := 0
	for ch, sz := range sizes {
		m += copy(heaps[m:], heaps[ch*width:ch*width+sz])
	}
	sortRows(heaps[:m], o.cmp)
	return heaps[:limit]
}

// after reports whether row a orders after row b, ties broken by position.
func (o *ordering) after(a, b int) bool {
	r := o.cmp(a, b)
	return r > 0 || r == 0 && a > b
}

func (o *ordering) siftUp(h []int) {
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if !o.after(h[j], h[p]) {
			return
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
}

func (o *ordering) siftDown(h []int) {
	for j := 0; ; {
		m := j
		for _, ch := range [2]int{2*j + 1, 2*j + 2} {
			if ch < len(h) && o.after(h[ch], h[m]) {
				m = ch
			}
		}
		if m == j {
			return
		}
		h[j], h[m] = h[m], h[j]
		j = m
	}
}

// sortRows sorts row positions by compare, ties by position. The
// tie-break makes the comparison strict, so the unstable sort's result
// is the stable permutation of the rows.
func sortRows(rows []int, compare func(a, b int) int) {
	slices.SortFunc(rows, func(a, b int) int {
		if r := compare(a, b); r != 0 {
			return r
		}
		return a - b
	})
}

// sortPerm computes the stable sort permutation of [0, n) under compare.
// At or below SerialCutoff elements — or with a single worker — it sorts
// in one pass. Above the cutoff it sorts contiguous runs in parallel and
// combines them with a stable pairwise merge that prefers the left run
// on ties. A run always holds smaller original positions than the run to
// its right, so preferring left preserves stability, and because the
// stable permutation is unique, the result is identical at any worker
// budget. The permutation buffer comes from the context's arena.
func sortPerm(c *exec.Ctx, n int, compare func(a, b int) int) []int {
	idx := Identity(c, n)
	if n <= SerialCutoff || c.Workers() <= 1 {
		sortRows(idx, compare)
		return idx
	}
	runs, size := c.ParallelRuns(n)
	c.ParallelFor(runs, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			sortRows(idx[r*size:min((r+1)*size, n)], compare)
		}
	})
	// Out-of-core merge: when the spill policy asks for it, the sorted
	// runs go to disk and merge back streaming, skipping the second
	// n-int buffer entirely.
	if sortMergeSpilled(c, idx, n, size, compare) {
		return idx
	}
	buf := c.Arena().Ints(n)
	src, dst := idx, buf
	for width := size; width < n; width *= 2 {
		pairs := (n + 2*width - 1) / (2 * width)
		w := width // capture per level
		c.ParallelFor(pairs, 1, func(plo, phi int) {
			for p := plo; p < phi; p++ {
				lo := p * 2 * w
				mergeRuns(dst, src, lo, min(lo+w, n), min(lo+2*w, n), compare)
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
	c.Arena().FreeInts(buf)
	return idx
}

// mergeRuns stably merges the sorted runs src[lo:mid] and src[mid:hi] into
// dst[lo:hi], taking from the left run on ties.
func mergeRuns(dst, src []int, lo, mid, hi int, compare func(a, b int) int) {
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		if i < mid && (j >= hi || compare(src[j], src[i]) >= 0) {
			dst[k] = src[i]
			i++
		} else {
			dst[k] = src[j]
			j++
		}
	}
}

// SortIndex computes the stable ascending sort permutation over one or more
// key columns (lexicographic, first column most significant). The returned
// slice idx satisfies: gathering any tail of the same relation by idx yields
// that tail ordered by the key columns. This is the "sorting" step of the
// paper's Algorithm 1: G <- sort(D), followed by b↓G for the other tails.
// It is Order with every key ascending and no limit.
func SortIndex(c *exec.Ctx, keys []*BAT) []int {
	return Order(c, keys, nil, -1)
}

// CompareFloat is the engine's total order on float64: it returns -1, 0
// or +1 as a orders before, with or after b. NaN orders after every
// number and ties with other NaNs; -0 ties with +0.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	an, bn := a != a, b != b
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	}
	return -1
}

// IsSortedIndex reports whether idx is the identity permutation, i.e. the
// keys were already in order and the gather can be skipped.
func IsSortedIndex(idx []int) bool {
	for k, j := range idx {
		if k != j {
			return false
		}
	}
	return true
}

// KeyUnique reports whether the key columns contain no duplicate
// combination of values, i.e. whether they form a key of the relation.
// idx must be the sort permutation over exactly those columns.
func KeyUnique(keys []*BAT, idx []int) bool {
	if len(keys) == 0 {
		return false
	}
	vecs := make([]*Vector, len(keys))
	for k, b := range keys {
		vecs[k] = b.Vector()
	}
	for k := 1; k < len(idx); k++ {
		same := true
		for _, v := range vecs {
			if v.Compare(idx[k-1], v, idx[k]) != 0 {
				same = false
				break
			}
		}
		if same {
			return false
		}
	}
	return true
}

// Identity returns the identity permutation of length n. The buffer comes
// from the context's arena; callers done with a permutation may hand it
// back with FreeInts.
func Identity(c *exec.Ctx, n int) []int {
	idx := c.Arena().Ints(n)
	for k := range idx {
		idx[k] = k
	}
	return idx
}
