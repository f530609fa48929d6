package linalg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/matrix"
)

// blockRandMatrix builds a deterministic test matrix with negatives,
// exact zeros (to exercise the kernels' zero-skip), and magnitude
// spread.
func blockRandMatrix(rng *rand.Rand, rows, cols int) *matrix.Matrix {
	m := matrix.New(rows, cols)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = -rng.Float64() * 100
		default:
			m.Data[i] = (rng.Float64() - 0.5) * 10
		}
	}
	return m
}

// edgeForTiles picks a tile edge so an n-wide matrix splits into
// exactly `tiles` tile columns (the last one possibly ragged).
func edgeForTiles(n, tiles int) int {
	return max(1, (n+tiles-1)/tiles)
}

func sameBits(t *testing.T, name string, got, want *matrix.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				name, i, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

var blockWorkerGrid = []int{1, 2, 8}
var blockTileGrid = []int{1, 2, 7, 16}

// TestBlockedMatMulBitwiseFlat: the tiled product must be
// bitwise-identical to the flat kernel at every worker budget and
// tile count, including non-divisible edges (n = tile ± 1 cases fall
// out of the 7- and 16-tile grids over prime-ish sizes).
func TestBlockedMatMulBitwiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][3]int{{97, 53, 61}, {64, 64, 64}, {33, 65, 31}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := blockRandMatrix(rng, m, k)
		b := blockRandMatrix(rng, k, n)
		want := MatMul(exec.New(1), a, b)
		for _, workers := range blockWorkerGrid {
			c := exec.New(workers)
			for _, tiles := range blockTileGrid {
				edge := edgeForTiles(max(m, max(k, n)), tiles)
				ab, err := matrix.BlockOf(c, a, edge)
				if err != nil {
					t.Fatal(err)
				}
				bb, err := matrix.BlockOf(c, b, edge)
				if err != nil {
					t.Fatal(err)
				}
				ob, err := MatMulBlocked(c, ab, bb)
				if err != nil {
					t.Fatalf("MatMulBlocked(%v, workers=%d, tiles=%d): %v", dims, workers, tiles, err)
				}
				got, err := ob.Flatten(c)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "blocked matmul", got, want)
				c.Arena().FreeFloats(got.Data)
				ab.Free(c)
				bb.Free(c)
				ob.Free(c)
			}
		}
	}
}

// TestBlockedSYRKBitwiseFlat mirrors the MatMul test for aᵀ·a.
func TestBlockedSYRKBitwiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{89, 47}, {50, 17}} {
		m, n := dims[0], dims[1]
		a := blockRandMatrix(rng, m, n)
		want := SYRK(exec.New(1), a)
		for _, workers := range blockWorkerGrid {
			c := exec.New(workers)
			for _, tiles := range blockTileGrid {
				edge := edgeForTiles(max(m, n), tiles)
				ab, err := matrix.BlockOf(c, a, edge)
				if err != nil {
					t.Fatal(err)
				}
				ob, err := SYRKBlocked(c, ab)
				if err != nil {
					t.Fatalf("SYRKBlocked(%v, workers=%d, tiles=%d): %v", dims, workers, tiles, err)
				}
				got, err := ob.Flatten(c)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "blocked syrk", got, want)
				c.Arena().FreeFloats(got.Data)
				ab.Free(c)
				ob.Free(c)
			}
		}
	}
}

// TestBlockedQRBitwiseFlat: every QR entry point — NewQR and QQR at
// each worker budget, QRBlocked over each tile grid — must
// produce the same Q and R bit for bit. The two large shapes sit above
// the trailing-update fan-out cutoff, so the column-parallel updates
// really split across workers; 600×260 also crosses a 256 edge.
func TestBlockedQRBitwiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, dims := range [][2]int{{90, 37}, {65, 65}, {33, 9}, {8000, 40}, {600, 260}} {
		m, n := dims[0], dims[1]
		a := blockRandMatrix(rng, m, n)
		ref, err := NewQR(exec.New(1), a)
		if err != nil {
			t.Fatal(err)
		}
		wantQ, wantR := ref.Q(), ref.R()
		large := m*n > 1<<17
		for i, workers := range blockWorkerGrid {
			c := exec.New(workers)
			d, err := NewQR(c, a)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "parallel QR: Q", d.Q(), wantQ)
			sameBits(t, "parallel QR: R", d.R(), wantR)
			q, err := QQR(c, a)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "QQR", q, wantQ)
			for k, tiles := range blockTileGrid {
				// The large shapes cover each tile grid once, cycling
				// through the worker budgets, to bound the run time.
				if large && k%len(blockWorkerGrid) != i {
					continue
				}
				edge := edgeForTiles(m, tiles)
				ab, err := matrix.BlockOf(c, a, edge)
				if err != nil {
					t.Fatal(err)
				}
				d, err := QRBlocked(c, ab)
				if err != nil {
					t.Fatalf("QRBlocked(%v, workers=%d, tiles=%d): %v", dims, workers, tiles, err)
				}
				sameBits(t, "blocked QR: Q", d.Q(), wantQ)
				sameBits(t, "blocked QR: R", d.R(), wantR)
				ab.Free(c)
			}
		}
	}
}

// TestBlockedCholeskyDeterministic: the blocked Cholesky is only
// approximately equal to the flat kernel (its blocked association
// rounds differently) but must be bitwise self-identical across
// worker budgets for a fixed tile edge, and close to the flat factor.
func TestBlockedCholeskyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 61
	g := blockRandMatrix(rng, n+9, n)
	spd := SYRK(exec.New(1), g) // gᵀg is SPD (full rank w.h.p.)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n)) // safely away from singular
	}
	want, err := Cholesky(spd)
	if err != nil {
		t.Fatal(err)
	}
	for _, tiles := range blockTileGrid {
		edge := edgeForTiles(n, tiles)
		var ref *matrix.Matrix
		for _, workers := range blockWorkerGrid {
			c := exec.New(workers)
			ab, err := matrix.BlockOf(c, spd, edge)
			if err != nil {
				t.Fatal(err)
			}
			ub, err := CholeskyBlocked(c, ab)
			if err != nil {
				t.Fatalf("CholeskyBlocked(workers=%d, tiles=%d): %v", workers, tiles, err)
			}
			got, err := ub.Flatten(c)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
				if !matrix.ApproxEqual(got, want, 1e-6*(1+want.MaxAbs())) {
					t.Fatalf("blocked Cholesky drifted from flat factor (tiles=%d)", tiles)
				}
			} else {
				sameBits(t, "blocked cholesky across workers", got, ref)
			}
			ab.Free(c)
			ub.Free(c)
		}
	}
	// Reject a non-SPD input like the flat kernel does.
	c := exec.New(2)
	bad := blockRandMatrix(rng, 8, 8)
	bb, err := matrix.BlockOf(c, bad, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CholeskyBlocked(c, bb); err != ErrNotPositiveDefinite {
		t.Fatalf("CholeskyBlocked(non-SPD) = %v, want ErrNotPositiveDefinite", err)
	}
}

// TestBlockedMatMulSerialHeuristic: a 1-worker context and a
// mid-sized input must both stay serial under the per-worker
// threshold (the PR-8 heuristic fix) while producing identical
// results either way.
func TestBlockedMatMulSerialHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := blockRandMatrix(rng, 48, 48) // 48³ ≈ 110k flops < parallelThreshold
	b := blockRandMatrix(rng, 48, 48)
	if w := fanoutWorkers(exec.New(8), 48*48*48); w != 1 {
		t.Fatalf("fanoutWorkers(mid-sized) = %d, want 1 (per-worker threshold)", w)
	}
	if w := fanoutWorkers(exec.New(1), 1<<30); w != 1 {
		t.Fatalf("fanoutWorkers(1-worker ctx) = %d, want 1", w)
	}
	if w := fanoutWorkers(exec.New(4), 1<<30); w != 4 {
		t.Fatalf("fanoutWorkers(big input) = %d, want the full budget 4", w)
	}
	sameBits(t, "heuristic respects results", MatMul(exec.New(8), a, b), MatMul(exec.New(1), a, b))
}
