package model

import (
	"fmt"
	"math"

	"sti/internal/tensor"
)

// Batched forward path: B sequences stacked row-wise into one activation
// matrix so each layer's position-wise matmuls (Q/K/V/O projections,
// FFN, layernorm, residual) run once over all sequences, while attention
// — the only cross-position operation — is computed per sequence block
// with its own mask.
//
// Every kernel involved computes output rows independently of each
// other (tensor.MatMul processes row blocks; bias/layernorm/GELU are
// row- or element-wise), so stacking is bit-exact: logits of a batched
// forward are byte-identical to running each sequence alone. That
// equivalence is what lets the pipeline engine amortize one IO +
// decompress stream across a whole batch without changing any result.

// EmbedBatch embeds B token sequences into one stacked activation
// matrix (Σlᵢ × d) and returns the per-sequence row counts. Sequences
// may have different lengths.
func (sm *Submodel) EmbedBatch(batch [][]int) (*tensor.Matrix, []int) {
	seqLens := make([]int, len(batch))
	total := 0
	for i, tokens := range batch {
		seqLens[i] = len(tokens)
		total += len(tokens)
	}
	x := tensor.New(total, sm.Cfg.Hidden)
	off := 0
	for _, tokens := range batch {
		x.SetRowSlice(off, sm.Embed(tokens))
		off += len(tokens)
	}
	return x, seqLens
}

// ForwardLayerBatch runs one assembled sub-layer over B stacked
// sequences. x holds the sequences' activations stacked row-wise
// (rows = sum of seqLens); masks[i] marks sequence i's valid positions
// (nil = all valid). Results are byte-identical to calling ForwardLayer
// on each sequence separately.
func ForwardLayerBatch(cfg Config, sl *SubLayer, x *tensor.Matrix, seqLens []int, masks [][]bool) *tensor.Matrix {
	total := 0
	for _, l := range seqLens {
		total += l
	}
	if total != x.Rows {
		panic(fmt.Sprintf("model: batch rows %d != sum of seqLens %d", x.Rows, total))
	}
	if len(masks) != len(seqLens) {
		panic(fmt.Sprintf("model: %d masks for %d sequences", len(masks), len(seqLens)))
	}
	hd := cfg.HeadDim()
	mw := sl.Width * hd

	q := tensor.New(x.Rows, mw)
	k := tensor.New(x.Rows, mw)
	v := tensor.New(x.Rows, mw)
	tensor.MatMul(q, x, sl.Q)
	tensor.AddBias(q, sl.QB)
	tensor.MatMul(k, x, sl.K)
	tensor.AddBias(k, sl.KB)
	tensor.MatMul(v, x, sl.V)
	tensor.AddBias(v, sl.VB)

	concat := tensor.New(x.Rows, mw)
	scale := float32(1 / math.Sqrt(float64(hd)))
	off := 0
	for s, l := range seqLens {
		// Row views of this sequence's block (no copy), and one scores
		// and one head buffer shared by its heads: each head overwrites
		// them completely before reading them.
		qb := tensor.FromSlice(l, mw, q.Data[off*mw:(off+l)*mw])
		kb := tensor.FromSlice(l, mw, k.Data[off*mw:(off+l)*mw])
		vb := tensor.FromSlice(l, mw, v.Data[off*mw:(off+l)*mw])
		scores := tensor.New(l, l)
		head := tensor.New(l, hd)
		for h := 0; h < sl.Width; h++ {
			qs := qb.ColSlice(h*hd, (h+1)*hd)
			ks := kb.ColSlice(h*hd, (h+1)*hd)
			vs := vb.ColSlice(h*hd, (h+1)*hd)
			tensor.MatMulBT(scores, qs, ks)
			tensor.Scale(scores, scale)
			if mask := masks[s]; mask != nil {
				for i := 0; i < l; i++ {
					row := scores.Row(i)
					for j := range row {
						if !mask[j] {
							row[j] = maskedScore
						}
					}
				}
			}
			tensor.SoftmaxRows(scores)
			tensor.MatMul(head, scores, vs)
			for r := 0; r < l; r++ {
				copy(concat.Row(off + r)[h*hd:(h+1)*hd], head.Row(r))
			}
		}
		off += l
	}

	attn := tensor.New(x.Rows, cfg.Hidden)
	tensor.MatMul(attn, concat, sl.O)
	tensor.AddBias(attn, sl.OB)
	tensor.Add(attn, attn, x)
	tensor.LayerNormRows(attn, sl.LN1G, sl.LN1B, nil, nil)

	inner := tensor.New(x.Rows, sl.Width*cfg.FFNSlice())
	tensor.MatMul(inner, attn, sl.FFN1)
	tensor.AddBias(inner, sl.FFN1B)
	tensor.GELU(inner)
	out := tensor.New(x.Rows, cfg.Hidden)
	tensor.MatMul(out, inner, sl.FFN2)
	tensor.AddBias(out, sl.FFN2B)
	tensor.Add(out, out, attn)
	tensor.LayerNormRows(out, sl.LN2G, sl.LN2B, nil, nil)
	return out
}

// ClassifyBatch applies the CLS pooler and classifier to each sequence
// of a stacked activation matrix (each sequence's CLS token is its
// first stacked row).
func (sm *Submodel) ClassifyBatch(x *tensor.Matrix, seqLens []int) [][]float32 {
	out := make([][]float32, len(seqLens))
	off := 0
	for i, l := range seqLens {
		out[i] = sm.Classify(tensor.FromSlice(1, sm.Cfg.Hidden, x.Row(off)))
		off += l
	}
	return out
}
