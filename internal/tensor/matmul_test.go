package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refMatMul is the naive ikj kernel matMulRows replaced, kept as the
// reference the unrolled kernel must match bit for bit.
func refMatMul(dst, a, b *Matrix) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		out := dst.Row(i)
		for x := range out {
			out[x] = 0
		}
		ar := a.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j := 0; j < n; j++ {
				out[j] += av * br[j]
			}
		}
	}
}

// refMatMulBT is the one-column-at-a-time kernel MatMulBT replaced.
func refMatMulBT(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		out := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			br := b.Row(j)
			var s float32
			for k, av := range ar {
				s += av * br[k]
			}
			out[j] = s
		}
	}
}

// randWithZeros fills a rows×cols matrix with normal values, about a
// quarter of them exact +0 or −0, so the zero-skip the naive kernel had
// is exercised.
func randWithZeros(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewRand(rows, cols, 1, rng)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = float32(math.Copysign(0, -1))
		}
	}
	return m
}

func sameBits(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]); g != w {
			t.Fatalf("%s: element %d = %#08x (%v), reference %#08x (%v)", name, i, g, got.Data[i], w, want.Data[i])
		}
	}
}

// TestMatMulKernelsBitExact checks the unrolled MatMul and MatMulBT
// against the naive kernels bit for bit, on random shapes that cover
// every K%4 remainder, K<4, single-column outputs, 0 and 1 rows, exact
// zeros in a, and products large enough for the parallel row split.
func TestMatMulKernelsBitExact(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	rng := rand.New(rand.NewSource(11))
	type shape struct{ m, k, n int }
	shapes := []shape{
		{0, 5, 3}, {1, 1, 1}, {1, 2, 7}, {1, 3, 1}, {2, 4, 1}, {3, 5, 2},
		{1, 48, 48}, {3, 48, 48}, {5, 9, 13}, {4, 6, 4},
		{70, 64, 64}, {64, 70, 67}, {65, 7, 80},
	}
	for i := 0; i < 40; i++ {
		shapes = append(shapes, shape{rng.Intn(9), 1 + rng.Intn(23), 1 + rng.Intn(19)})
	}
	for _, s := range shapes {
		name := fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n)
		a := randWithZeros(s.m, s.k, rng)
		b := randWithZeros(s.k, s.n, rng)
		got, want := New(s.m, s.n), New(s.m, s.n)
		MatMul(got, a, b)
		refMatMul(want, a, b)
		sameBits(t, "MatMul "+name, got, want)

		bt := randWithZeros(s.n, s.k, rng)
		MatMulBT(got, a, bt)
		refMatMulBT(want, a, bt)
		sameBits(t, "MatMulBT "+name, got, want)
	}
}

// TestMatMulZeroTimesInf pins the one semantic change of the unrolled
// kernel: a zero in a no longer skips its row of b, so 0·Inf is NaN as
// IEEE 754 says.
func TestMatMulZeroTimesInf(t *testing.T) {
	a := FromSlice(1, 2, []float32{0, 1})
	b := FromSlice(2, 1, []float32{float32(math.Inf(1)), 2})
	dst := New(1, 1)
	MatMul(dst, a, b)
	if !math.IsNaN(float64(dst.Data[0])) {
		t.Fatalf("0·Inf + 1·2 = %v, want NaN", dst.Data[0])
	}
}

// BenchmarkMatMul runs the kernels at the shapes the benchmark
// workloads execute: TinyConfig (d=48) for serving and decode, and the
// engage model (d=192, 16-wide heads, FFN slice 64) for engagements.
// Names read rows×inner×cols; for BT the cols are b's rows (a·bᵀ).
func BenchmarkMatMul(b *testing.B) {
	for _, s := range []struct{ m, k, n int }{
		{32, 48, 48}, {32, 48, 96}, {32, 96, 48}, {3, 48, 48},
		{64, 192, 80}, {64, 192, 320}, {64, 320, 192},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			x := NewRand(s.m, s.k, 0.5, rng)
			w := NewRand(s.k, s.n, 0.02, rng)
			dst := New(s.m, s.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(dst, x, w)
			}
		})
	}
	for _, s := range []struct{ m, k, n int }{
		{8, 48, 512}, {64, 16, 64},
	} {
		b.Run(fmt.Sprintf("BT/%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			x := NewRand(s.m, s.k, 0.5, rng)
			w := NewRand(s.n, s.k, 0.02, rng)
			dst := New(s.m, s.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulBT(dst, x, w)
			}
		})
	}
}
