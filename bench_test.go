// Benchmarks regenerating the paper's evaluation artifacts (one per table
// and figure, §8) at benchmark-friendly sizes, plus ablations of the
// design choices DESIGN.md calls out. cmd/rmabench prints the full
// paper-style series; these testing.B entry points make every experiment
// runnable through `go test -bench`.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/bat"
	"repro/internal/bench"
	"repro/internal/competitor/arraydb"
	"repro/internal/competitor/rsim"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/rel"
)

// --- Figure 13: maintaining contextual information --------------------------

func BenchmarkFig13ContextMaintenance(b *testing.B) {
	rows, orderCols := 5000, 100
	r, orderR := dataset.WideOrder(rows, orderCols, 1)
	s, orderS := dataset.WideOrder(rows, orderCols, 2)
	ren := make(map[string]string, len(orderS))
	orderS2 := make([]string, len(orderS))
	for i, n := range orderS {
		ren[n] = "p" + n
		orderS2[i] = "p" + n
	}
	s2, err := s.Rename(ren)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"add-full-sort", func() error {
			_, err := core.Add(r, orderR, s2, orderS2, &core.Options{SortMode: core.SortFull})
			return err
		}},
		{"add-relative-sort", func() error {
			_, err := core.Add(r, orderR, s2, orderS2, &core.Options{SortMode: core.SortOptimized})
			return err
		}},
		{"qqr-full-sort", func() error {
			_, err := core.Qqr(r, orderR, &core.Options{SortMode: core.SortFull})
			return err
		}},
		{"qqr-wo-sort", func() error {
			_, err := core.Qqr(r, orderR, &core.Options{SortMode: core.SortOptimized})
			return err
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 4: add over wide relations ---------------------------------------

func BenchmarkTable4WideAdd(b *testing.B) {
	r := dataset.Uniform(1000, 1000, 3)
	s, err := dataset.Uniform(1000, 1000, 4).Rename(map[string]string{"k": "k2"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Add(r, []string{"k"}, s, []string{"k2"},
			&core.Options{SortMode: core.SortOptimized}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 5: add over sparse relations --------------------------------------

func BenchmarkTable5SparseAdd(b *testing.B) {
	cases := []struct {
		name  string
		zeros float64
	}{
		{"dense", 0},
		{"half-zero", 0.5},
		{"ninety-pct-zero", 0.9},
	}
	for _, c := range cases {
		r := dataset.Sparse(200000, 10, c.zeros, 5)
		s, err := dataset.Sparse(200000, 10, c.zeros, 6).Rename(map[string]string{"k": "k2"})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Add(r, []string{"k"}, s, []string{"k2"},
					&core.Options{Policy: core.PolicyBAT, SortMode: core.SortOptimized}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 6: qqr in R vs RMA+ ------------------------------------------------

func BenchmarkTable6QQR(b *testing.B) {
	r := dataset.Uniform(20000, 20, 7)
	df := rsim.FromRelation(r)
	names := df.Names[1:]
	b.Run("R-single-core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := df.ToMatrix(names)
			if err != nil {
				b.Fatal(err)
			}
			qr, err := linalg.NewQR(exec.New(1), m)
			if err != nil {
				b.Fatal(err)
			}
			qr.Q()
		}
	})
	b.Run("RMA-dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Qqr(r, []string{"k"},
				&core.Options{Policy: core.PolicyDense, SortMode: core.SortOptimized}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RMA-bat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Qqr(r, []string{"k"},
				&core.Options{Policy: core.PolicyBAT, SortMode: core.SortOptimized}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Table 7: add + selection vs SciDB -----------------------------------------

func BenchmarkTable7AddSelect(b *testing.B) {
	n := 100000
	r := dataset.Uniform(n, 10, 8)
	s := dataset.Uniform(n, 10, 9)
	s2, err := s.Rename(map[string]string{"k": "k2"})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("RMA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum, err := core.Add(r, []string{"k"}, s2, []string{"k2"},
				&core.Options{Policy: core.PolicyBAT, SortMode: core.SortOptimized})
			if err != nil {
				b.Fatal(err)
			}
			pred, err := sum.FloatPred("a0000", func(v float64) bool { return v > 15000 })
			if err != nil {
				b.Fatal(err)
			}
			sum.Select(nil, pred)
		}
	})
	ac := make([][]float64, 10)
	bc := make([][]float64, 10)
	for j := 0; j < 10; j++ {
		ac[j], _ = r.Cols[j+1].Floats()
		bc[j], _ = s.Cols[j+1].Floats()
	}
	arrA := arraydb.FromColumns(ac, 0)
	arrB := arraydb.FromColumns(bc, 0)
	b.Run("SciDB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum, err := arraydb.Add(arrA, arrB)
			if err != nil {
				b.Fatal(err)
			}
			sum.Filter(func(v float64) bool { return v > 15000 })
		}
	})
}

// --- Figure 14: data transformation share ---------------------------------------

func BenchmarkFig14TransformShare(b *testing.B) {
	r := dataset.Uniform(50000, 50, 10)
	s, err := dataset.Uniform(50000, 50, 11).Rename(map[string]string{"k": "k2"})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ADD-dense-policy", func(b *testing.B) {
		var share float64
		for i := 0; i < b.N; i++ {
			st := &core.Stats{}
			if _, err := core.Add(r, []string{"k"}, s, []string{"k2"},
				&core.Options{Policy: core.PolicyDense, SortMode: core.SortOptimized, Stats: st}); err != nil {
				b.Fatal(err)
			}
			share = float64(st.Transform) / float64(st.Transform+st.Kernel)
		}
		b.ReportMetric(share*100, "%transform")
	})
	b.Run("QQR-dense-policy", func(b *testing.B) {
		var share float64
		for i := 0; i < b.N; i++ {
			st := &core.Stats{}
			if _, err := core.Qqr(r, []string{"k"},
				&core.Options{Policy: core.PolicyDense, SortMode: core.SortOptimized, Stats: st}); err != nil {
				b.Fatal(err)
			}
			share = float64(st.Transform) / float64(st.Transform+st.Kernel)
		}
		b.ReportMetric(share*100, "%transform")
	})
}

// --- Figures 15-18: the four mixed workloads --------------------------------------

func BenchmarkFig15TripsOLS(b *testing.B) {
	trips := dataset.Trips(50000, 80, 12)
	stations := dataset.Stations(80, 12)
	b.Run("RMA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.TripsRMA(trips, stations, core.PolicyAuto); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AIDA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.TripsAIDA(trips, stations); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MADlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.TripsMADlib(trips, stations); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig16Journeys(b *testing.B) {
	trips := dataset.Trips(60000, 30, 13)
	stations := dataset.Stations(30, 13)
	const k = 3
	b.Run("RMA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.JourneysRMA(trips, stations, k, core.PolicyAuto); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AIDA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.JourneysAIDA(trips, stations, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("R", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.JourneysR(trips, stations, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MADlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.JourneysMADlib(trips, stations, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig17Covariance(b *testing.B) {
	pubs := dataset.Publications(5000, 40, 14)
	ranking := dataset.Rankings(40, 14)
	b.Run("RMA-MKL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.CovarianceRMA(pubs, ranking, core.PolicyDense); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RMA-BAT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.CovarianceRMA(pubs, ranking, core.PolicyBAT); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("R", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.CovarianceR(pubs, ranking); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AIDA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.CovarianceAIDA(pubs, ranking); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MADlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.CovarianceMADlib(pubs, ranking); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig18TripCount(b *testing.B) {
	y1 := dataset.RiderTripCounts(100000, 2016)
	y2 := dataset.RiderTripCounts(100000, 2017)
	b.Run("RMA-BAT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.TripCountRMA(y1, y2, core.PolicyBAT); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RMA-MKL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.TripCountRMA(y1, y2, core.PolicyDense); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("R", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.TripCountR(y1, y2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AIDA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.TripCountAIDA(y1, y2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MADlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.TripCountMADlib(y1, y2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) ---------------------------------------------------

// BenchmarkAblationMatMul compares the naive triple loop against the
// blocked serial and blocked parallel kernels.
func BenchmarkAblationMatMul(b *testing.B) {
	n := 256
	x := matrix.New(n, n)
	y := matrix.New(n, n)
	for i := range x.Data {
		x.Data[i] = float64(i % 97)
		y.Data[i] = float64(i % 89)
	}
	b.Run("naive", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			out := matrix.New(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var s float64
					for l := 0; l < n; l++ {
						s += x.At(i, l) * y.At(l, j)
					}
					out.Set(i, j, s)
				}
			}
		}
	})
	b.Run("blocked-parallel", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			linalg.MatMul(nil, x, y)
		}
	})
}

// BenchmarkAblationSYRK compares the symmetric rank-k fast path against
// the generic cross product for the covariance pattern.
func BenchmarkAblationSYRK(b *testing.B) {
	a := matrix.New(20000, 60)
	for i := range a.Data {
		a.Data[i] = float64(i%101) / 7
	}
	b.Run("syrk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.SYRK(nil, a)
		}
	})
	b.Run("generic-cpd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.CrossProduct(nil, a, a)
		}
	})
}

// BenchmarkAblationParallelKernels isolates the chunked parallel driver
// and the arena: the same BAT kernels at worker budgets 1 and GOMAXPROCS,
// with and without releasing outputs back to the arena. On a single-core
// runner the two budgets coincide (the driver stays serial); the arena
// contrast is visible everywhere via allocs/op.
func BenchmarkAblationParallelKernels(b *testing.B) {
	n := 1 << 20
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i % 97)
		ys[i] = float64(i % 89)
	}
	x, y := bat.FromFloats(xs), bat.FromFloats(ys)
	budgets := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // 0 = restore the GOMAXPROCS default
	}
	for _, bud := range budgets {
		workers := bud.workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		prev := exec.SetDefaultWorkers(workers)
		b.Run("add-"+bud.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bat.Release(nil, bat.Add(nil, x, y))
			}
		})
		b.Run("dot-"+bud.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bat.Dot(nil, x, y)
			}
		})
		exec.SetDefaultWorkers(prev)
	}
	b.Run("add-no-release", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bat.Add(nil, x, y)
		}
	})
}

// BenchmarkAblationSparseAdd isolates the zero-suppressed add against the
// dense add at equal logical size.
func BenchmarkAblationSparseAdd(b *testing.B) {
	n := 1 << 20
	dense1 := make([]float64, n)
	dense2 := make([]float64, n)
	for i := 0; i < n; i += 10 { // 10% non-zero
		dense1[i] = float64(i)
		dense2[(i+5)%n] = float64(i)
	}
	d1, d2 := bat.FromFloats(dense1), bat.FromFloats(dense2)
	s1 := bat.FromSparse(bat.Compress(dense1))
	s2 := bat.FromSparse(bat.Compress(dense2))
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bat.Add(nil, d1, d2)
		}
	})
	b.Run("zero-suppressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bat.Add(nil, s1, s2)
		}
	})
}

// BenchmarkAblationHashJoin measures the columnar hash join that both the
// RMA+ and AIDA preparation phases rely on.
func BenchmarkAblationHashJoin(b *testing.B) {
	trips := dataset.Trips(100000, 80, 15)
	stations := dataset.Stations(80, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rel.HashJoin(nil, trips, stations,
			[]string{"start_station"}, []string{"code"}, rel.Inner); err != nil {
			b.Fatal(err)
		}
	}
}
