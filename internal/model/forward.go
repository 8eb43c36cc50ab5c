package model

import (
	"fmt"
	"math"

	"sti/internal/tensor"
)

// maskedScore is the additive logit applied to attention scores of
// padding positions before softmax.
const maskedScore = -1e9

// Submodel is an executable n×m model: n assembled sub-layers over the
// resident embeddings and classification head of the parent weights.
// This is what the pipeline executes layer by layer.
type Submodel struct {
	Cfg    Config
	Parent *Weights // resident parameters: embeddings, pooler, classifier
	Layers []*SubLayer
}

// NewSubmodel assembles an n×m submodel from full-fidelity shards of w,
// using slice indexes 0..m-1 of layers 0..n-1. Experiments that execute
// quantized plans build Submodels shard-by-shard instead.
func NewSubmodel(w *Weights, n, m int) (*Submodel, error) {
	if n <= 0 || n > w.Cfg.Layers || m <= 0 || m > w.Cfg.Heads {
		return nil, fmt.Errorf("model: submodel %dx%d outside %dx%d", n, m, w.Cfg.Layers, w.Cfg.Heads)
	}
	sm := &Submodel{Cfg: w.Cfg, Parent: w}
	for l := 0; l < n; l++ {
		shards := make([]*ShardWeights, m)
		for i := 0; i < m; i++ {
			shards[i] = w.ExtractShard(l, i)
		}
		sl, err := AssembleSubLayer(w.Cfg, w.Layers[l], shards)
		if err != nil {
			return nil, err
		}
		sm.Layers = append(sm.Layers, sl)
	}
	return sm, nil
}

// Embed produces the l×d input activations for a token sequence:
// token + position embeddings followed by the embedding layernorm.
// mask[i]==false marks padding; padding rows are embedded normally but
// masked out of attention.
func (sm *Submodel) Embed(tokens []int) *tensor.Matrix {
	cfg := sm.Cfg
	if len(tokens) > cfg.MaxSeq {
		panic(fmt.Sprintf("model: sequence %d exceeds MaxSeq %d", len(tokens), cfg.MaxSeq))
	}
	x := tensor.New(len(tokens), cfg.Hidden)
	for i, id := range tokens {
		if id < 0 || id >= cfg.Vocab {
			panic(fmt.Sprintf("model: token id %d outside vocab %d", id, cfg.Vocab))
		}
		row := x.Row(i)
		copy(row, sm.Parent.Emb.Token.Row(id))
		pos := sm.Parent.Emb.Position.Row(i)
		for c := range row {
			row[c] += pos[c]
		}
	}
	tensor.LayerNormRows(x, sm.Parent.Emb.LNG, sm.Parent.Emb.LNB, nil, nil)
	return x
}

// ForwardLayer runs one assembled sub-layer over activations x in place
// semantics: it returns the new activations (l×d). mask marks valid
// (non-padding) positions; nil means all valid.
func ForwardLayer(cfg Config, sl *SubLayer, x *tensor.Matrix, mask []bool) *tensor.Matrix {
	l := x.Rows
	hd := cfg.HeadDim()
	mw := sl.Width * hd

	q := tensor.New(l, mw)
	k := tensor.New(l, mw)
	v := tensor.New(l, mw)
	tensor.MatMul(q, x, sl.Q)
	tensor.AddBias(q, sl.QB)
	tensor.MatMul(k, x, sl.K)
	tensor.AddBias(k, sl.KB)
	tensor.MatMul(v, x, sl.V)
	tensor.AddBias(v, sl.VB)

	concat := tensor.New(l, mw)
	scale := float32(1 / math.Sqrt(float64(hd)))
	// One scores and one head buffer serve every head: each head
	// overwrites them completely before reading them.
	scores := tensor.New(l, l)
	head := tensor.New(l, hd)
	for h := 0; h < sl.Width; h++ {
		qh := q.ColSlice(h*hd, (h+1)*hd)
		kh := k.ColSlice(h*hd, (h+1)*hd)
		vh := v.ColSlice(h*hd, (h+1)*hd)
		tensor.MatMulBT(scores, qh, kh)
		tensor.Scale(scores, scale)
		if mask != nil {
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
		tensor.MatMul(head, scores, vh)
		concat.SetColSlice(h*hd, head)
	}

	attn := tensor.New(l, cfg.Hidden)
	tensor.MatMul(attn, concat, sl.O)
	tensor.AddBias(attn, sl.OB)
	tensor.Add(attn, attn, x)
	tensor.LayerNormRows(attn, sl.LN1G, sl.LN1B, nil, nil)

	inner := tensor.New(l, sl.Width*cfg.FFNSlice())
	tensor.MatMul(inner, attn, sl.FFN1)
	tensor.AddBias(inner, sl.FFN1B)
	tensor.GELU(inner)
	out := tensor.New(l, cfg.Hidden)
	tensor.MatMul(out, inner, sl.FFN2)
	tensor.AddBias(out, sl.FFN2B)
	tensor.Add(out, out, attn)
	tensor.LayerNormRows(out, sl.LN2G, sl.LN2B, nil, nil)
	return out
}

// Logits runs the full submodel on a token sequence and returns the
// class logits. mask marks valid positions (nil = all valid).
func (sm *Submodel) Logits(tokens []int, mask []bool) []float32 {
	x := sm.Embed(tokens)
	for _, sl := range sm.Layers {
		x = ForwardLayer(sm.Cfg, sl, x, mask)
	}
	return sm.Classify(x)
}

// Classify applies the CLS pooler and classifier to final activations.
func (sm *Submodel) Classify(x *tensor.Matrix) []float32 {
	cls := tensor.FromSlice(1, sm.Cfg.Hidden, x.Row(0))
	pooled := tensor.New(1, sm.Cfg.Hidden)
	tensor.MatMul(pooled, cls, sm.Parent.Pooler)
	tensor.AddBias(pooled, sm.Parent.PoolerB)
	tensor.Tanh(pooled)
	logits := tensor.New(1, sm.Cfg.Classes)
	tensor.MatMul(logits, pooled, sm.Parent.Cls)
	tensor.AddBias(logits, sm.Parent.ClsB)
	return logits.Row(0)
}

// Predict returns the argmax class for a token sequence.
func (sm *Submodel) Predict(tokens []int, mask []bool) int {
	logits := sm.Logits(tokens, mask)
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// FLOPs estimates the floating-point operations of one forward pass of
// an n×m submodel on a length-l input: the standard 2·params·l matmul
// cost plus the l²-order attention score/value products. Used by the
// experiments to report FLOPs ratios (Figure 8).
func FLOPs(cfg Config, n, m, l int) int64 {
	hd, fs, d := cfg.HeadDim(), cfg.FFNSlice(), cfg.Hidden
	perLayer := int64(0)
	perLayer += int64(2*l) * int64(d) * int64(3*m*hd) // Q,K,V projections
	perLayer += int64(2*l) * int64(m*hd) * int64(d)   // O projection
	perLayer += int64(2*l) * int64(d) * int64(m*fs)   // FFN1
	perLayer += int64(2*l) * int64(m*fs) * int64(d)   // FFN2
	perLayer += int64(m) * (int64(2*l*l*hd) * 2)      // scores + weighted sum per head
	return int64(n) * perLayer
}
