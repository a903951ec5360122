package workloads

import (
	"math"
	"math/rand"
	"testing"
)

// TestRefMatMulMatchesNaiveLoop checks the reference GEMM against a
// plain triple loop on seeded shapes: a 1×k row, inner sizes that are
// not multiples of four, and zero rows, inner or columns. The two sum in
// different orders, so each entry may differ by rounding, bounded by
// the inner size times the sum of its products' magnitudes.
func TestRefMatMulMatchesNaiveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range []struct{ n, k, m int }{
		{1, 7, 1}, {1, 13, 5}, {3, 4, 2}, {5, 9, 6}, {8, 1, 3}, {17, 33, 11}, {0, 6, 4}, {4, 0, 3}, {4, 6, 0},
	} {
		a, b := randMat(rng, sh.n, sh.k), randMat(rng, sh.k, sh.m)
		got := refMatMul(a, b)
		if got.Rows != sh.n || got.Cols != sh.m || len(got.Data) != sh.n*sh.m {
			t.Fatalf("%dx%d·%dx%d: result is %dx%d with %d values", sh.n, sh.k, sh.k, sh.m, got.Rows, got.Cols, len(got.Data))
		}
		for i := 0; i < sh.n; i++ {
			for j := 0; j < sh.m; j++ {
				var want, mag float64
				for p := 0; p < sh.k; p++ {
					x := a.At(i, p) * b.At(p, j)
					want += x
					mag += math.Abs(x)
				}
				if d := math.Abs(got.At(i, j) - want); d > float64(sh.k)*mag*1e-15 {
					t.Errorf("%dx%d·%dx%d: [%d,%d] = %v, naive loop %v", sh.n, sh.k, sh.k, sh.m, i, j, got.At(i, j), want)
				}
			}
		}
	}
}
