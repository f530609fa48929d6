package linalg

import (
	"math"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// QR holds a Householder QR factorization of an m×n matrix with m >= n:
// A = Q·R with Q m×n (thin, orthonormal columns) and R n×n upper
// triangular. The working representation is one contiguous column per
// attribute — Householder reflections walk columns, and it is the shape
// of a BAT — with the Householder vectors stored on and below the
// diagonal and R strictly above it; R's diagonal lives in tau.
//
// Every entry point (NewQR, QRBlocked, QRColumns) runs the
// same factorization loop, and Q, FullQ and QInPlace the same Q
// formation. Both parallelize across columns only, so every column sees
// the same arithmetic in the same order at any worker budget: results
// are bitwise-identical across budgets, tile grids and entry points.
type QR struct {
	v    [][]float64 // n columns of length m
	tau  []float64
	rows int
	c    *exec.Ctx // the factoring context, whose budget Q formation reuses
}

// NewQR factors a with Householder reflections using the context's
// worker budget for the trailing-column updates (the LAPACK/MKL
// behavior); a one-worker context gives R's single-core LINPACK qr(),
// which the Table 6 experiment compares against. Requires Rows >= Cols.
func NewQR(c *exec.Ctx, a *matrix.Matrix) (*QR, error) {
	if a.Rows < a.Cols {
		return nil, ErrShape
	}
	cols := make([][]float64, a.Cols)
	for j := range cols {
		cols[j] = a.Column(j)
	}
	return QRColumns(c, cols)
}

// QRColumns factors the m×n matrix whose columns are cols (all of
// length m >= n) in place: on return the columns hold the Householder
// vectors and R, and the QR aliases them. The caller keeps ownership
// of the buffers; QInPlace turns them into Q without another copy.
func QRColumns(c *exec.Ctx, cols [][]float64) (*QR, error) {
	n := len(cols)
	m := 0
	if n > 0 {
		m = len(cols[0])
	}
	for _, col := range cols {
		if len(col) != m {
			return nil, ErrShape
		}
	}
	if m < n {
		return nil, ErrShape
	}
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		ck := cols[k][k:]
		norm := columnNorm(ck)
		if norm == 0 {
			continue // tau[k] = 0 and a zero v_kk mark H_k = I
		}
		// Choose the sign that avoids cancellation in v_kk = a_kk/norm + 1.
		if ck[0] < 0 {
			norm = -norm
		}
		inv := 1 / norm
		for i := range ck {
			ck[i] *= inv
		}
		ck[0]++
		applyTrailing(c, cols, k, k+1)
		// The diagonal of R cannot live in v (that slot holds the
		// Householder vector), so it is carried in tau.
		tau[k] = -norm
	}
	return &QR{v: cols, tau: tau, rows: m, c: c}, nil
}

// columnNorm returns ‖x‖₂ as the square root of a plain sum of squares,
// falling back to a math.Hypot accumulation when that sum overflowed or
// is so small that squares of the entries may have underflowed (the
// fallback also covers the all-zero column, returning 0).
func columnNorm(x []float64) float64 {
	if ss := dot4(x, x); ss > 0x1p-900 && ss <= math.MaxFloat64 {
		return math.Sqrt(ss)
	}
	var norm float64
	for _, xi := range x {
		norm = math.Hypot(norm, xi)
	}
	return norm
}

// dot4 returns Σ a[i]·b[i] over len(a) entries, accumulated in four
// interleaved partial sums (entry i goes to sum i mod 4) that are added
// pairwise at the end. The split depends only on the length, never on
// how the caller distributes columns over workers.
func dot4(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// applyReflectorTo applies H_k = I − v·vᵀ/v_k, with v stored in rows
// k..m−1 of ck, to rows k..m−1 of cj. It is the one reflector body:
// factorization, Q formation and the least-squares solve all apply
// reflectors through it.
func applyReflectorTo(ck, cj []float64, k int) {
	v := ck[k:]
	x := cj[k:len(ck)]
	x = x[:len(v)]
	s := -dot4(v, x) / v[0]
	for i, vi := range v {
		x[i] += s * vi
	}
}

// applyTrailing applies the reflector stored in v[k] to the columns
// v[lo:], spread over the context's workers by column. Each column is
// updated by one worker with the same arithmetic, so the split never
// shows in the result.
func applyTrailing(c *exec.Ctx, v [][]float64, k, lo int) {
	ck := v[k]
	// A worker should get at least ~32k row updates to pay for its spawn.
	minCols := (1 << 15) / (len(ck) - k)
	c.ParallelFor(len(v)-lo, minCols, func(a, b int) {
		for _, cj := range v[lo+a : lo+b] {
			applyReflectorTo(ck, cj, k)
		}
	})
}

// formQ overwrites factored columns with Q = H_0·H_1···H_{n−1} applied
// to the unit vectors, LAPACK dorg2r-style, on the factoring context.
// v[0:n] hold the reflectors (n = len(d.tau)); any further columns
// v[n:] must hold the unit vectors e_n, e_{n+1}, … they stand for. Going
// backwards, H_i is applied to the columns right of i — which are zero
// above row i+1, so rows < i never change — and then column i becomes
// H_i·e_i.
func (d *QR) formQ(v [][]float64) {
	for i := len(d.tau) - 1; i >= 0; i-- {
		ci := v[i]
		clear(ci[:i])
		if d.tau[i] == 0 {
			clear(ci[i:])
			ci[i] = 1
			continue
		}
		applyTrailing(d.c, v, i, i+1)
		// H_i·e_i = e_i − v·(v_i/v_i) = e_i − v; 0 − v keeps zeros positive.
		ci[i] = 1 - ci[i]
		for r := i + 1; r < len(ci); r++ {
			ci[r] = 0 - ci[r]
		}
	}
}

// R returns the n×n upper-triangular factor.
func (d *QR) R() *matrix.Matrix {
	n := len(d.tau)
	r := matrix.New(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, d.tau[i])
		for j := i + 1; j < n; j++ {
			r.Set(i, j, d.v[j][i])
		}
	}
	return r
}

// Q returns the thin m×n orthonormal factor. The factorization is left
// intact.
func (d *QR) Q() *matrix.Matrix {
	return d.q(len(d.tau))
}

// FullQ returns the full m×m orthogonal factor.
func (d *QR) FullQ() *matrix.Matrix {
	return d.q(d.rows)
}

// q forms the first w columns of Q in a copy of the factored columns,
// extended by the unit vectors e_n..e_{w−1}.
func (d *QR) q(w int) *matrix.Matrix {
	cols := make([][]float64, w)
	for j := range cols {
		if j < len(d.tau) {
			cols[j] = append([]float64(nil), d.v[j]...)
		} else {
			cols[j] = make([]float64, d.rows)
			cols[j][j] = 1
		}
	}
	d.formQ(cols)
	return matrix.FromColumns(cols)
}

// QInPlace forms the thin Q in the factored columns themselves — the
// buffers handed to QRColumns — and returns them. R is overwritten, so
// d must not be used afterwards.
func (d *QR) QInPlace() [][]float64 {
	q := d.v
	d.formQ(q)
	d.v = nil
	return q
}

// QQR returns matrix Q of the QR decomposition (the paper's QQR, shape
// (r1,c1): m×n in, m×n out).
func QQR(c *exec.Ctx, a *matrix.Matrix) (*matrix.Matrix, error) {
	d, err := NewQR(c, a)
	if err != nil {
		return nil, err
	}
	return matrix.FromColumns(d.QInPlace()), nil
}

// RQR returns matrix R of the QR decomposition (the paper's RQR, shape
// (c1,c1): m×n in, n×n out).
func RQR(c *exec.Ctx, a *matrix.Matrix) (*matrix.Matrix, error) {
	d, err := NewQR(c, a)
	if err != nil {
		return nil, err
	}
	return d.R(), nil
}

// lstsq solves min ‖a·x − b‖₂ for overdetermined a via QR, applying the
// reflectors to b directly (no Q materialization).
func lstsq(c *exec.Ctx, a *matrix.Matrix, b []float64) ([]float64, error) {
	d, err := NewQR(c, a)
	if err != nil {
		return nil, err
	}
	n := len(d.tau)
	qtb := append([]float64(nil), b...)
	for k := 0; k < n; k++ {
		if d.tau[k] != 0 {
			applyReflectorTo(d.v[k], qtb, k)
		}
	}
	// Back substitution on R (diagonal in tau, strict upper in v).
	x := qtb[:n]
	for k := n - 1; k >= 0; k-- {
		if d.tau[k] == 0 {
			return nil, ErrSingular
		}
		for j := k + 1; j < n; j++ {
			x[k] -= d.v[j][k] * x[j]
		}
		x[k] /= d.tau[k]
	}
	return append([]float64(nil), x...), nil
}
