package linalg

import (
	"math"
	"sync"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// This file holds the tiled (block-partitioned) kernels over
// matrix.BlockMatrix grids. The parallel unit is an output tile —
// each output tile is produced by exactly one worker, and the inner
// reduction over input tiles runs in fixed ascending order — so
// results are bitwise-identical at any worker budget and any tile
// edge. MatMulBlocked and SYRKBlocked moreover visit every scalar
// product in exactly the order of their flat counterparts (ascending
// k with the same zero-skip), and QRBlocked gathers its tiles into
// columns and runs the flat Householder loop itself, so those three
// are bitwise-identical to the flat kernels too.
// CholeskyBlocked uses a genuinely blocked right-looking update whose
// association differs from the flat column loop; it is deterministic
// across workers and tile counts but only approximately equal to
// Cholesky.

// collectErr funnels the first error out of a ParallelFor body.
type collectErr struct {
	mu  sync.Mutex
	err error
}

func (e *collectErr) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// inherit copies the spill regime of src (falling back to alt) onto a
// freshly built output matrix, so kernel outputs stay out-of-core
// when their inputs are.
func inherit(out, src, alt *matrix.BlockMatrix) {
	if sp, maxRes := src.SpillConfig(); sp != nil {
		out.EnableSpill(sp, maxRes)
	} else if alt != nil {
		if sp, maxRes := alt.SpillConfig(); sp != nil {
			out.EnableSpill(sp, maxRes)
		}
	}
}

// MatMulBlocked returns a·b over tile grids (SUMMA-style: each output
// tile accumulates its row-of-a × column-of-b tile products in
// ascending k-tile order). Requires matching tile edges. The result
// is bitwise-identical to MatMul on the flattened operands: per
// output element both kernels add the products a[i][k]·b[k][j] in
// ascending k, skipping a[i][k] == 0.
func MatMulBlocked(c *exec.Ctx, a, b *matrix.BlockMatrix) (*matrix.BlockMatrix, error) {
	if a.Cols != b.Rows {
		return nil, ErrShape
	}
	if a.Edge != b.Edge {
		return nil, ErrShape
	}
	out := matrix.NewBlockEdge(a.Rows, b.Cols, a.Edge)
	inherit(out, a, b)
	kt := a.TileCols()
	var ce collectErr
	c.ParallelFor(out.TileRows()*out.TileCols(), 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			if err := matMulTile(c, a, b, out, t/out.TileCols(), t%out.TileCols(), kt); err != nil {
				ce.set(err)
				return
			}
		}
	})
	if ce.err != nil {
		out.Free(c)
		return nil, ce.err
	}
	return out, nil
}

func matMulTile(c *exec.Ctx, a, b, out *matrix.BlockMatrix, ti, tj, kt int) error {
	h, w := out.TileDims(ti, tj)
	ot, err := out.Pin(c, ti, tj)
	if err != nil {
		return err
	}
	defer out.Unpin(ti, tj)
	for tk := 0; tk < kt; tk++ {
		at, err := a.PinRead(c, ti, tk)
		if err != nil {
			return err
		}
		bt, err := b.PinRead(c, tk, tj)
		if err != nil {
			a.Unpin(ti, tk)
			return err
		}
		_, ka := a.TileDims(ti, tk)
		for i := 0; i < h; i++ {
			arow := at[i*ka : (i+1)*ka]
			orow := ot[i*w : (i+1)*w]
			for l, ail := range arow {
				if ail == 0 {
					continue
				}
				brow := bt[l*w : (l+1)*w]
				for j, bv := range brow {
					orow[j] += ail * bv
				}
			}
		}
		a.Unpin(ti, tk)
		b.Unpin(tk, tj)
	}
	return nil
}

// SYRKBlocked returns aᵀ·a over a tile grid, computing upper-triangle
// output tiles (each accumulating its column-pair tile products in
// ascending row-tile order) and mirroring the lower triangle.
// Bitwise-identical to SYRK on the flattened operand: per output
// element both kernels add a[r][i]·a[r][j] in ascending r, skipping
// a[r][i] == 0, and the mirror is a copy.
func SYRKBlocked(c *exec.Ctx, a *matrix.BlockMatrix) (*matrix.BlockMatrix, error) {
	n := a.Cols
	out := matrix.NewBlockEdge(n, n, a.Edge)
	inherit(out, a, nil)
	tc := out.TileCols()
	// Upper-triangle tile list in fixed (row-major) order.
	var upper [][2]int
	for ti := 0; ti < tc; ti++ {
		for tj := ti; tj < tc; tj++ {
			upper = append(upper, [2]int{ti, tj})
		}
	}
	rt := a.TileRows()
	var ce collectErr
	c.ParallelFor(len(upper), 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			if err := syrkTile(c, a, out, upper[t][0], upper[t][1], rt); err != nil {
				ce.set(err)
				return
			}
		}
	})
	if ce.err == nil {
		// Mirror the strict lower triangle from the computed upper.
		var lower [][2]int
		for ti := 1; ti < tc; ti++ {
			for tj := 0; tj < ti; tj++ {
				lower = append(lower, [2]int{ti, tj})
			}
		}
		c.ParallelFor(len(lower), 1, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				ti, tj := lower[t][0], lower[t][1]
				if err := mirrorTile(c, out, ti, tj); err != nil {
					ce.set(err)
					return
				}
			}
		})
		if ce.err == nil {
			// Diagonal tiles mirror within themselves.
			for ti := 0; ti < tc; ti++ {
				h, w := out.TileDims(ti, ti)
				ot, err := out.Pin(c, ti, ti)
				if err != nil {
					ce.set(err)
					break
				}
				for i := 0; i < h; i++ {
					for j := i + 1; j < w; j++ {
						ot[j*w+i] = ot[i*w+j]
					}
				}
				out.Unpin(ti, ti)
			}
		}
	}
	if ce.err != nil {
		out.Free(c)
		return nil, ce.err
	}
	return out, nil
}

func syrkTile(c *exec.Ctx, a, out *matrix.BlockMatrix, ti, tj, rt int) error {
	h, w := out.TileDims(ti, tj)
	ot, err := out.Pin(c, ti, tj)
	if err != nil {
		return err
	}
	defer out.Unpin(ti, tj)
	for tr := 0; tr < rt; tr++ {
		ai, err := a.PinRead(c, tr, ti)
		if err != nil {
			return err
		}
		aj := ai
		if tj != ti {
			aj, err = a.PinRead(c, tr, tj)
			if err != nil {
				a.Unpin(tr, ti)
				return err
			}
		}
		rh, wi := a.TileDims(tr, ti)
		for r := 0; r < rh; r++ {
			irow := ai[r*wi : (r+1)*wi]
			jrow := aj[r*w : (r+1)*w]
			for i := 0; i < h; i++ {
				ari := irow[i]
				if ari == 0 {
					continue
				}
				orow := ot[i*w : (i+1)*w]
				j0 := 0
				if tj == ti {
					j0 = i // only j ≥ i on diagonal tiles
				}
				for j := j0; j < w; j++ {
					orow[j] += ari * jrow[j]
				}
			}
		}
		a.Unpin(tr, ti)
		if tj != ti {
			a.Unpin(tr, tj)
		}
	}
	return nil
}

// mirrorTile fills lower tile (ti, tj) with the transpose of upper
// tile (tj, ti).
func mirrorTile(c *exec.Ctx, out *matrix.BlockMatrix, ti, tj int) error {
	h, w := out.TileDims(ti, tj)
	ot, err := out.Pin(c, ti, tj)
	if err != nil {
		return err
	}
	defer out.Unpin(ti, tj)
	src, err := out.PinRead(c, tj, ti)
	if err != nil {
		return err
	}
	defer out.Unpin(tj, ti)
	_, sw := out.TileDims(tj, ti)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			ot[i*w+j] = src[j*sw+i]
		}
	}
	return nil
}

// QRBlocked factors a block matrix: the tiles are gathered (in
// parallel, tile by tile) into one column per attribute, which then
// runs the same column-parallel Householder loop as NewQR. The
// factorization — v, tau and everything derived from them — is
// therefore bitwise-identical to NewQR on the flattened operand. Every
// tile is read while the columns are built, so a spilling operand
// saves nothing here.
func QRBlocked(c *exec.Ctx, a *matrix.BlockMatrix) (*QR, error) {
	if a.Rows < a.Cols {
		return nil, ErrShape
	}
	m, n := a.Rows, a.Cols
	v := make([][]float64, n)
	for j := 0; j < n; j++ {
		v[j] = make([]float64, m)
	}
	var ce collectErr
	c.ParallelFor(a.TileRows()*a.TileCols(), 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			ti, tj := t/a.TileCols(), t%a.TileCols()
			h, w := a.TileDims(ti, tj)
			data, err := a.PinRead(c, ti, tj)
			if err != nil {
				ce.set(err)
				return
			}
			for r := 0; r < h; r++ {
				gi := ti*a.Edge + r
				for jj := 0; jj < w; jj++ {
					v[tj*a.Edge+jj][gi] = data[r*w+jj]
				}
			}
			a.Unpin(ti, tj)
		}
	})
	if ce.err != nil {
		return nil, ce.err
	}
	return QRColumns(c, v)
}

// CholeskyBlocked factors a symmetric positive definite block matrix
// into its upper Cholesky factor R (A = Rᵀ·R) with a right-looking
// panel algorithm: factor the diagonal tile, triangular-solve the
// tile row to its right (tile-parallel), rank-update the trailing
// tiles (tile-parallel, each tile owned by one worker with the panel
// rows folded in ascending order). Deterministic at any worker budget
// and tile edge; the association differs from the flat Cholesky, so
// results agree with it only to rounding.
func CholeskyBlocked(c *exec.Ctx, a *matrix.BlockMatrix) (*matrix.BlockMatrix, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	if err := checkBlockSymmetric(c, a); err != nil {
		return nil, err
	}
	n := a.Cols
	u := matrix.NewBlockEdge(n, n, a.Edge)
	inherit(u, a, nil)
	tc := u.TileCols()
	// Copy the upper triangle of a into the working factor.
	var ce collectErr
	c.ParallelFor(tc*(tc+1)/2, 1, func(lo, hi int) {
		t := 0
		for ti := 0; ti < tc; ti++ {
			for tj := ti; tj < tc; tj++ {
				if t >= lo && t < hi {
					if err := copyTile(c, a, u, ti, tj); err != nil {
						ce.set(err)
						return
					}
				}
				t++
			}
		}
	})
	if ce.err != nil {
		u.Free(c)
		return nil, ce.err
	}
	for tk := 0; tk < tc; tk++ {
		if err := cholStep(c, u, tk, tc); err != nil {
			u.Free(c)
			return nil, err
		}
	}
	return u, nil
}

func copyTile(c *exec.Ctx, src, dst *matrix.BlockMatrix, ti, tj int) error {
	s, err := src.PinRead(c, ti, tj)
	if err != nil {
		return err
	}
	defer src.Unpin(ti, tj)
	d, err := dst.Pin(c, ti, tj)
	if err != nil {
		return err
	}
	copy(d, s)
	dst.Unpin(ti, tj)
	return nil
}

// cholStep performs one right-looking panel step on tile row tk.
func cholStep(c *exec.Ctx, u *matrix.BlockMatrix, tk, tc int) error {
	diag, err := u.Pin(c, tk, tk)
	if err != nil {
		return err
	}
	h, _ := u.TileDims(tk, tk)
	// In-place upper Cholesky of the (already updated) diagonal tile —
	// the same column loop as the flat kernel, confined to one tile.
	for j := 0; j < h; j++ {
		var d float64
		for k := 0; k < j; k++ {
			var s float64
			for i := 0; i < k; i++ {
				s += diag[i*h+k] * diag[i*h+j]
			}
			if diag[k*h+k] == 0 {
				u.Unpin(tk, tk)
				return ErrNotPositiveDefinite
			}
			s = (diag[k*h+j] - s) / diag[k*h+k]
			diag[k*h+j] = s
			d += s * s
		}
		d = diag[j*h+j] - d
		if d <= 0 {
			u.Unpin(tk, tk)
			return ErrNotPositiveDefinite
		}
		diag[j*h+j] = math.Sqrt(d)
		for i := j + 1; i < h; i++ {
			diag[i*h+j] = 0 // keep the factor's lower triangle clean
		}
	}
	// Triangular solve of the tile row: U[tk][tj] = R_kkᵀ⁻¹ · T.
	var ce collectErr
	c.ParallelFor(tc-(tk+1), 1, func(lo, hi int) {
		for tj := tk + 1 + lo; tj < tk+1+hi; tj++ {
			t, err := u.Pin(c, tk, tj)
			if err != nil {
				ce.set(err)
				return
			}
			_, w := u.TileDims(tk, tj)
			for jj := 0; jj < w; jj++ {
				for k := 0; k < h; k++ {
					s := t[k*w+jj]
					for i := 0; i < k; i++ {
						s -= diag[i*h+k] * t[i*w+jj]
					}
					t[k*w+jj] = s / diag[k*h+k]
				}
			}
			u.Unpin(tk, tj)
		}
	})
	u.Unpin(tk, tk)
	if ce.err != nil {
		return ce.err
	}
	// Trailing rank update: tile (ti, tj) -= U[tk][ti]ᵀ · U[tk][tj],
	// one worker per trailing tile, panel rows folded ascending.
	var trail [][2]int
	for ti := tk + 1; ti < tc; ti++ {
		for tj := ti; tj < tc; tj++ {
			trail = append(trail, [2]int{ti, tj})
		}
	}
	c.ParallelFor(len(trail), 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			ti, tj := trail[t][0], trail[t][1]
			ki, err := u.PinRead(c, tk, ti)
			if err != nil {
				ce.set(err)
				return
			}
			kj := ki
			if tj != ti {
				kj, err = u.PinRead(c, tk, tj)
				if err != nil {
					u.Unpin(tk, ti)
					ce.set(err)
					return
				}
			}
			dst, err := u.Pin(c, ti, tj)
			if err != nil {
				u.Unpin(tk, ti)
				if tj != ti {
					u.Unpin(tk, tj)
				}
				ce.set(err)
				return
			}
			hi2, wi := u.TileDims(tk, ti)
			_, w := u.TileDims(ti, tj)
			for r := 0; r < hi2; r++ {
				irow := ki[r*wi : (r+1)*wi]
				jrow := kj[r*w : (r+1)*w]
				for i := 0; i < wi; i++ {
					uri := irow[i]
					if uri == 0 {
						continue
					}
					drow := dst[i*w : (i+1)*w]
					for j := 0; j < w; j++ {
						drow[j] -= uri * jrow[j]
					}
				}
			}
			u.Unpin(ti, tj)
			u.Unpin(tk, ti)
			if tj != ti {
				u.Unpin(tk, tj)
			}
		}
	})
	return ce.err
}

// checkBlockSymmetric mirrors the flat Cholesky's precondition: the
// matrix must be symmetric within 1e-8·(1+max|a|).
func checkBlockSymmetric(c *exec.Ctx, a *matrix.BlockMatrix) error {
	tc := a.TileCols()
	maxAbs := 0.0
	for ti := 0; ti < tc; ti++ {
		for tj := 0; tj < tc; tj++ {
			data, err := a.PinRead(c, ti, tj)
			if err != nil {
				return err
			}
			for _, v := range data {
				if av := math.Abs(v); av > maxAbs {
					maxAbs = av
				}
			}
			a.Unpin(ti, tj)
		}
	}
	tol := 1e-8 * (1 + maxAbs)
	for ti := 0; ti < tc; ti++ {
		for tj := ti; tj < tc; tj++ {
			up, err := a.PinRead(c, ti, tj)
			if err != nil {
				return err
			}
			lo := up
			if tj != ti {
				lo, err = a.PinRead(c, tj, ti)
				if err != nil {
					a.Unpin(ti, tj)
					return err
				}
			}
			h, w := a.TileDims(ti, tj)
			_, lw := a.TileDims(tj, ti)
			bad := false
			for i := 0; i < h && !bad; i++ {
				for j := 0; j < w; j++ {
					if math.Abs(up[i*w+j]-lo[j*lw+i]) > tol {
						bad = true
						break
					}
				}
			}
			a.Unpin(ti, tj)
			if tj != ti {
				a.Unpin(tj, ti)
			}
			if bad {
				return ErrNotPositiveDefinite
			}
		}
	}
	return nil
}
