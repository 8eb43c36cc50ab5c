package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// parallelThreshold is the number of result elements below which matmul
// runs single-threaded; spawning goroutines for tiny products costs more
// than it saves.
const parallelThreshold = 64 * 64

// MatMul computes dst = a × b. dst must be a.Rows×b.Cols and must not
// alias a or b. Large products are split across GOMAXPROCS goroutines by
// row blocks.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if a.Rows*b.Cols < parallelThreshold {
		matMulRows(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulRows(dst, a, b, lo, hi) })
}

// matMulRows computes rows [lo,hi) of dst = a×b using an ikj loop order
// that streams b rows sequentially (cache-friendly without an explicit
// transpose). k is unrolled by 4: each out[j] is loaded once, gets four
// products added in ascending k, one addition per statement, and is
// stored once. The b rows are resliced to len(out) so the compiler drops
// the bounds checks in the inner loop. The per-element operation order
// is the package's accumulation contract (see the package doc).
func matMulRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		out := dst.Row(i)
		clear(out)
		ar := a.Row(i)
		k := 0
		for ; k+4 <= len(ar); k += 4 {
			a0, a1, a2, a3 := ar[k], ar[k+1], ar[k+2], ar[k+3]
			b0 := b.Row(k)[:len(out)]
			b1 := b.Row(k + 1)[:len(out)]
			b2 := b.Row(k + 2)[:len(out)]
			b3 := b.Row(k + 3)[:len(out)]
			for j, o := range out {
				o += a0 * b0[j]
				o += a1 * b1[j]
				o += a2 * b2[j]
				o += a3 * b3[j]
				out[j] = o
			}
		}
		for ; k < len(ar); k++ {
			av := ar[k]
			br := b.Row(k)[:len(out)]
			for j := range out {
				out[j] += av * br[j]
			}
		}
	}
}

// MatMulBT computes dst = a × bᵀ without materializing the transpose.
// dst must be a.Rows×b.Rows.
func MatMulBT(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBT %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulBT dst shape")
	}
	if a.Rows*b.Rows < parallelThreshold {
		matMulBTRows(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulBTRows(dst, a, b, lo, hi) })
}

// matMulBTRows computes rows [lo,hi) of dst = a×bᵀ, four output columns
// per pass so the four dot products share each load of a's row. Each
// dot product starts at +0 and adds its products in ascending k.
func matMulBTRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		out := dst.Row(i)
		j := 0
		for ; j+4 <= len(out); j += 4 {
			b0 := b.Row(j)[:len(ar)]
			b1 := b.Row(j + 1)[:len(ar)]
			b2 := b.Row(j + 2)[:len(ar)]
			b3 := b.Row(j + 3)[:len(ar)]
			var s0, s1, s2, s3 float32
			for k, av := range ar {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
		}
		for ; j < len(out); j++ {
			br := b.Row(j)[:len(ar)]
			var s float32
			for k, av := range ar {
				s += av * br[k]
			}
			out[j] = s
		}
	}
}

// MatMulAT computes dst = aᵀ × b without materializing the transpose.
// dst must be a.Cols×b.Cols. Used by the backprop trainer for weight
// gradients (dW = xᵀ · dy).
func MatMulAT(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulAT (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulAT dst shape")
	}
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		ar := a.Row(k)
		br := b.Row(k)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			out := dst.Row(i)
			for j, bv := range br {
				out[j] += av * bv
			}
		}
	}
}

// parallelRows splits [0, rows) into GOMAXPROCS contiguous blocks and
// runs body on each concurrently.
func parallelRows(rows int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		body(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	//sti:ctxok bounded compute fan-out: the workers finish when the op does; there is nothing external to cancel
	wg.Wait()
}

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: Add shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a − b elementwise. dst may alias a or b.
func Sub(dst, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: Sub shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Scale multiplies every element of m by s in place.
func Scale(m *Matrix, s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AXPY computes dst += s·a elementwise.
func AXPY(dst *Matrix, s float32, a *Matrix) {
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: AXPY shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] += s * a.Data[i]
	}
}

// AddBias adds the bias vector to every row of m in place.
func AddBias(m *Matrix, bias []float32) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: AddBias %d bias for %d cols", len(bias), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, b := range bias {
			row[c] += b
		}
	}
}

// SoftmaxRows applies a numerically stable softmax to each row of m in
// place.
func SoftmaxRows(m *Matrix) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float32
		for i, v := range row {
			e := float32(math.Exp(float64(v - mx)))
			row[i] = e
			sum += e
		}
		inv := 1 / sum
		for i := range row {
			row[i] *= inv
		}
	}
}

// LayerNormEps is the variance epsilon used by LayerNormRows, matching
// BERT's default.
const LayerNormEps = 1e-5

// LayerNormRows normalizes each row of m to zero mean and unit variance,
// then applies the elementwise affine transform gamma/beta, in place.
// If mean/invStd are non-nil they receive the per-row statistics (length
// m.Rows), which the backprop trainer needs.
func LayerNormRows(m *Matrix, gamma, beta []float32, mean, invStd []float32) {
	if len(gamma) != m.Cols || len(beta) != m.Cols {
		panic("tensor: LayerNormRows gamma/beta length")
	}
	n := float32(m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		var mu float32
		for _, v := range row {
			mu += v
		}
		mu /= n
		var va float32
		for _, v := range row {
			d := v - mu
			va += d * d
		}
		va /= n
		is := 1 / float32(math.Sqrt(float64(va)+LayerNormEps))
		if mean != nil {
			mean[r] = mu
		}
		if invStd != nil {
			invStd[r] = is
		}
		for i, v := range row {
			row[i] = (v-mu)*is*gamma[i] + beta[i]
		}
	}
}

// GELU applies the Gaussian error linear unit to every element of m in
// place, using the tanh approximation BERT uses.
func GELU(m *Matrix) {
	for i, v := range m.Data {
		m.Data[i] = geluScalar(v)
	}
}

const (
	geluC0 = 0.7978845608028654 // sqrt(2/pi)
	geluC1 = 0.044715
)

func geluScalar(x float32) float32 {
	x64 := float64(x)
	return float32(0.5 * x64 * (1 + math.Tanh(geluC0*(x64+geluC1*x64*x64*x64))))
}

// GELUGrad returns d gelu(x) / dx for a scalar input.
func GELUGrad(x float32) float32 {
	x64 := float64(x)
	u := geluC0 * (x64 + geluC1*x64*x64*x64)
	t := math.Tanh(u)
	du := geluC0 * (1 + 3*geluC1*x64*x64)
	return float32(0.5*(1+t) + 0.5*x64*(1-t*t)*du)
}

// Tanh applies tanh to every element of m in place.
func Tanh(m *Matrix) {
	for i, v := range m.Data {
		m.Data[i] = float32(math.Tanh(float64(v)))
	}
}
