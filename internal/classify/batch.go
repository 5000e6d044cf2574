package classify

import (
	"math"

	"repro/internal/seq2seq"
	"repro/internal/tensor"
)

// PredictTopNBatch answers PredictTopN for a whole micro-batch in one
// encoder forward and one head pass: srcs are encoded through
// seq2seq.NewInferBatch, each segment is pooled exactly the way Logits
// pools (ascending-row sum times 1/n, concatenated with the final-position
// state), and the stacked pooled rows run through the MLP head as one
// GEMM. ns[i] is the top-N for srcs[i]; out[i] lists template statements
// most likely first, bit-identical to the top-N of Logits(srcs[i]).
func (c *Classifier) PredictTopNBatch(srcs [][]int, ns []int) [][]string {
	out := make([][]string, len(srcs))
	if len(srcs) == 0 {
		return out
	}
	ib := seq2seq.NewInferBatch(c.Enc, srcs)
	defer ib.Close()

	b := len(srcs)
	d := c.Enc.Config().DModel
	sc := tensor.Batches.Get()
	defer tensor.Batches.Put(sc)

	// pooled row i = [mean(enc_i) | enc_i[last]]. The mean mirrors
	// meanPoolRows: a ones-row GEMM is an ascending-row sum (1*x adds
	// x's exact bits), then one elementwise scale by 1/n.
	pooled := sc.Get(b, 2*d)
	for i := 0; i < b; i++ {
		enc := ib.EncSegment(i)
		row := pooled.Row(i)
		acc := row[:d]
		for r := 0; r < enc.Rows; r++ {
			for j, v := range enc.Row(r) {
				acc[j] += v
			}
		}
		inv := 1 / float64(enc.Rows)
		for j := range acc {
			acc[j] *= inv
		}
		copy(row[d:], enc.Row(enc.Rows-1))
	}

	full := []tensor.Span{{Lo: 0, Hi: b}}
	// The head mirrors Logits with training=false (dropout identity):
	// L1, GELU, L2 — all row-local, so one stacked pass per layer.
	h := sc.Get(b, c.L1.W.T.Cols)
	tensor.MatMulSpansInto(h, pooled, c.L1.W.T, full)
	tensor.AddRowSpansInto(h, h, c.L1.B.T, full)
	geluInPlace(h.Data)
	logits := sc.Get(b, c.L2.W.T.Cols)
	tensor.MatMulSpansInto(logits, h, c.L2.W.T, full)
	tensor.AddRowSpansInto(logits, logits, c.L2.B.T, full)

	var scratch []int
	for i := 0; i < b; i++ {
		idx := logits.TopKRowInto(i, ns[i], scratch)
		scratch = idx[:cap(idx)]
		classes := make([]string, 0, len(idx))
		for _, id := range idx {
			classes = append(classes, c.Classes[id])
		}
		out[i] = classes
	}
	return out
}

// geluInPlace applies autograd.GELU's exact tanh approximation.
func geluInPlace(data []float64) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, x := range data {
		data[i] = 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
	}
}
