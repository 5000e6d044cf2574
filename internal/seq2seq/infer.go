// Inference-only forward pass: every decode and classification call, for
// one request or a serving micro-batch, runs through an InferBatch.
//
// The pre-LN transformer runs graph-free span kernels: the batch's token
// sequences are stacked into one padded matrix (stride L = max sequence
// length, valid rows tracked as tensor.Spans). Every kernel mirrors the
// exact floating-point operation order of the autograd forward in
// transformer.go/nn.go/autograd.go — same accumulation order, same
// separate bias pass after the GEMM, same scale-then-mask-then-softmax
// attention — so each request's outputs are bit-identical to the autograd
// forward, without its graph nodes and gradient buffers. Every other Model
// (ConvS2S, GRU, post-LN, wrappers) gets graphBatch, the autograd forward
// behind the same interface, so callers never branch on the model.
package seq2seq

import (
	"fmt"
	"math"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// InferBatch holds the encoder state of one batch of sources and runs
// lockstep decode steps against it. It is not safe for concurrent use.
type InferBatch interface {
	// EncSegment returns source i's len×d encoder output, valid until
	// Close.
	EncSegment(i int) *tensor.Tensor
	// DecodeLastLogits runs one decode step over prefixes of one shared
	// length and returns the last-position logits as a
	// len(prefixes)×vocab tensor, reused by the next call. Prefix i
	// attends over encoder segment segs[i], so beams of one request
	// share its encoder state.
	DecodeLastLogits(prefixes [][]int, segs []int) *tensor.Tensor
	// Close releases every batch-lifetime tensor; a second Close is a
	// no-op.
	Close()
}

// NewInferBatch encodes srcs and returns the batch handle: the span
// kernels for the pre-LN transformer, the graph-backed driver for every
// other model. The caller must Close the returned batch.
func NewInferBatch(m Model, srcs [][]int) InferBatch {
	tm, ok := m.(*transformerModel)
	if !ok || tm.cfg.PostLN || len(srcs) == 0 {
		return newGraphBatch(m, srcs)
	}
	stride := 0
	for _, s := range srcs {
		stride = max(stride, len(s))
	}
	spans := make([]tensor.Span, len(srcs))
	for i, s := range srcs {
		spans[i] = tensor.Span{Lo: i * stride, Hi: i*stride + len(s)}
	}
	ib := &spanBatch{m: tm, sc: tensor.Batches.Get(), spans: spans}
	ib.enc = ib.encode(srcs, stride)
	return ib
}

// graphBatch drives the autograd forward: Encode once per source and
// DecodeLogits once per prefix per step, keeping the last row and freeing
// each step's graph at once (the encoder graphs live until Close).
type graphBatch struct {
	m      Model
	encs   []*autograd.Value
	logits *tensor.Tensor // last-step logits, reused between steps
}

func newGraphBatch(m Model, srcs [][]int) *graphBatch {
	g := &graphBatch{m: m, encs: make([]*autograd.Value, len(srcs))}
	for i, src := range srcs {
		g.encs[i] = m.Encode(src, false, nil)
	}
	return g
}

func (g *graphBatch) EncSegment(i int) *tensor.Tensor { return g.encs[i].T }

func (g *graphBatch) DecodeLastLogits(prefixes [][]int, segs []int) *tensor.Tensor {
	if g.logits != nil {
		tensor.Shared.Put(g.logits)
	}
	g.logits = tensor.Shared.Get(len(prefixes), g.m.Config().Vocab)
	for i, p := range prefixes {
		enc := g.encs[segs[i]]
		out := g.m.DecodeLogits(enc, p, false, nil)
		copy(g.logits.Row(i), out.T.Row(out.T.Rows-1))
		autograd.Free(out, enc)
	}
	return g.logits
}

func (g *graphBatch) Close() {
	for _, e := range g.encs {
		autograd.Free(e)
	}
	g.encs = nil
	if g.logits != nil {
		tensor.Shared.Put(g.logits)
		g.logits = nil
	}
}

// spanBatch is the pre-LN transformer's graph-free InferBatch: the
// stacked encoder output, its spans, and (lazily) the cross-attention K/V
// reused by every decode step, all in a BatchScratch ledger.
type spanBatch struct {
	m     *transformerModel
	sc    *tensor.BatchScratch
	spans []tensor.Span
	enc   *tensor.Tensor

	// Cross-attention K/V per decoder block, projected from enc once on
	// the first decode step (the autograd path recomputes them every
	// step; the projection is row-local so caching is bit-identical).
	crossK, crossV []*tensor.Tensor

	logits *tensor.Tensor // last-step logits, reused between steps
}

// EncSegment returns a view into the stacked batch.
func (ib *spanBatch) EncSegment(i int) *tensor.Tensor {
	d := ib.enc.Cols
	s := ib.spans[i]
	return tensor.FromSlice(s.Len(), d, ib.enc.Data[s.Lo*d:s.Hi*d])
}

func (ib *spanBatch) Close() {
	if ib.sc == nil {
		return
	}
	if ib.logits != nil {
		tensor.Shared.Put(ib.logits)
		ib.logits = nil
	}
	tensor.Batches.Put(ib.sc)
	ib.sc = nil
	ib.enc, ib.crossK, ib.crossV = nil, nil, nil
}

// encode runs the batched encoder forward, mirroring
// transformerModel.Encode with train=false (dropout is the identity).
func (ib *spanBatch) encode(srcs [][]int, stride int) *tensor.Tensor {
	m := ib.m
	d := m.cfg.DModel
	tmp := tensor.Batches.Get()
	defer tensor.Batches.Put(tmp)

	x := tmp.Get(len(srcs)*stride, d)
	embedSegments(x, m.srcEmb, m.pos, srcs, ib.spans)
	for _, blk := range m.encBlocks {
		n := layerNormSpans(tmp, blk.ln1, x, ib.spans)
		addSpans(x, attnSelf(tmp, blk.attn, n, ib.spans, nil), ib.spans)
		n2 := layerNormSpans(tmp, blk.ln2, x, ib.spans)
		addSpans(x, feedForwardSpans(tmp, blk.ff, n2, ib.spans), ib.spans)
	}
	// encNorm output is batch-lifetime: decode steps and classification
	// heads read it for as long as the batch lives.
	enc := ib.sc.Get(x.Rows, d)
	layerNormSpansInto(enc, m.encNorm, x, ib.spans)
	return enc
}

// DecodeLastLogits stacks the prefixes with a uniform T-row layout.
func (ib *spanBatch) DecodeLastLogits(prefixes [][]int, segs []int) *tensor.Tensor {
	m := ib.m
	d := m.cfg.DModel
	n := len(prefixes)
	if n == 0 || len(segs) != n {
		panic(fmt.Sprintf("seq2seq: decode batch %d prefixes / %d segs", n, len(segs)))
	}
	T := len(prefixes[0])
	ib.ensureCrossKV()

	tmp := tensor.Batches.Get()
	defer tensor.Batches.Put(tmp)

	// Uniform lockstep layout: item i owns rows [i*T, (i+1)*T), no pads,
	// and cross-attends over its encoder segment's rows.
	spans := make([]tensor.Span, n)
	encSpans := make([]tensor.Span, n)
	for i, seg := range segs {
		if len(prefixes[i]) != T {
			panic("seq2seq: decode batch prefixes must share one length")
		}
		spans[i] = tensor.Span{Lo: i * T, Hi: (i + 1) * T}
		encSpans[i] = ib.spans[seg]
	}
	x := tmp.Get(n*T, d)
	embedSegments(x, m.tgtEmb, m.pos, prefixes, spans)

	// One causal mask serves every item: all segments are T×T.
	mask := tmp.Get(T, T)
	nn.FillCausalMask(mask)

	for bi, blk := range m.decBlocks {
		nrm := layerNormSpans(tmp, blk.ln1, x, spans)
		addSpans(x, attnSelf(tmp, blk.self, nrm, spans, mask), spans)
		n2 := layerNormSpans(tmp, blk.ln2, x, spans)
		q := linearSpans(tmp, blk.cross.Wq, n2, spans)
		addSpans(x, attnCore(tmp, blk.cross, q, ib.crossK[bi], ib.crossV[bi], spans, encSpans, nil), spans)
		n3 := layerNormSpans(tmp, blk.ln3, x, spans)
		addSpans(x, feedForwardSpans(tmp, blk.ff, n3, spans), spans)
	}

	// Only each item's last position feeds the next-token distribution;
	// decNorm and the output projection are row-local, so trimming to the
	// last rows here is bit-identical to the autograd full-sequence
	// pass and saves a vocab-width GEMM over the other T-1 rows.
	last := tmp.Get(n, d)
	for i := range spans {
		copy(last.Row(i), x.Row(spans[i].Hi-1))
	}
	full := []tensor.Span{{Lo: 0, Hi: n}}
	lastN := layerNormSpans(tmp, m.decNorm, last, full)

	if ib.logits != nil {
		tensor.Shared.Put(ib.logits)
	}
	ib.logits = tensor.Shared.Get(n, m.cfg.Vocab)
	tensor.MatMulSpansInto(ib.logits, lastN, m.out.W.T, full)
	tensor.AddRowSpansInto(ib.logits, ib.logits, m.out.B.T, full)
	return ib.logits
}

// ensureCrossKV projects the stacked encoder output through every decoder
// block's cross-attention Wk/Wv once per batch.
func (ib *spanBatch) ensureCrossKV() {
	if ib.crossK != nil {
		return
	}
	m := ib.m
	ib.crossK = make([]*tensor.Tensor, len(m.decBlocks))
	ib.crossV = make([]*tensor.Tensor, len(m.decBlocks))
	for i, blk := range m.decBlocks {
		ib.crossK[i] = linearSpans(ib.sc, blk.cross.Wk, ib.enc, ib.spans)
		ib.crossV[i] = linearSpans(ib.sc, blk.cross.Wv, ib.enc, ib.spans)
	}
}

// embedSegments writes the scaled token embedding plus positional encoding
// for each sequence into its span of x (positions restart at 0 per
// segment). The fused per-element form w[id][j]*sqrt(d) + pos[p][j] is the
// same two operations, in the same order, as the autograd
// Scale(Embedding(...)) followed by AddTableRows.
func embedSegments(x *tensor.Tensor, emb *nn.Embedding, pos *nn.PositionalEncoding, seqs [][]int, spans []tensor.Span) {
	scale := math.Sqrt(float64(emb.D))
	table := pos.Table()
	w := emb.W.T
	for si, seq := range seqs {
		if len(seq) > table.Rows {
			panic(fmt.Sprintf("nn: sequence length %d exceeds positional table %d", len(seq), table.Rows))
		}
		for p, id := range seq {
			wrow := w.Row(id)
			trow := table.Row(p)
			dst := x.Row(spans[si].Lo + p)
			for j := range dst {
				dst[j] = wrow[j]*scale + trow[j]
			}
		}
	}
}

// linearSpans applies y = xW + b to the valid rows, mirroring
// nn.Linear.Forward: the GEMM accumulates into zeroed rows, then the bias
// is a separate broadcast pass.
func linearSpans(sc *tensor.BatchScratch, l *nn.Linear, x *tensor.Tensor, spans []tensor.Span) *tensor.Tensor {
	out := sc.Get(x.Rows, l.W.T.Cols)
	tensor.MatMulSpansInto(out, x, l.W.T, spans)
	tensor.AddRowSpansInto(out, out, l.B.T, spans)
	return out
}

// layerNormSpans normalizes the valid rows into a fresh scratch tensor.
func layerNormSpans(sc *tensor.BatchScratch, ln *nn.LayerNorm, x *tensor.Tensor, spans []tensor.Span) *tensor.Tensor {
	out := sc.Get(x.Rows, x.Cols)
	layerNormSpansInto(out, ln, x, spans)
	return out
}

// layerNormSpansInto mirrors autograd.LayerNorm's per-row arithmetic:
// mean, then variance (both ascending sums divided by cols), inverse
// standard deviation through math.Sqrt, and xhat*gain+bias per element.
func layerNormSpansInto(out *tensor.Tensor, ln *nn.LayerNorm, x *tensor.Tensor, spans []tensor.Span) {
	cols := x.Cols
	gain, bias := ln.Gain.T.Data, ln.Bias.T.Data
	eps := ln.Eps()
	for _, s := range spans {
		for r := s.Lo; r < s.Hi; r++ {
			src, dst := x.Row(r), out.Row(r)
			mean := 0.0
			for _, v := range src {
				mean += v
			}
			mean /= float64(cols)
			variance := 0.0
			for _, v := range src {
				d := v - mean
				variance += d * d
			}
			variance /= float64(cols)
			inv := 1 / math.Sqrt(variance+eps)
			for j, v := range src {
				xh := (v - mean) * inv
				dst[j] = xh*gain[j] + bias[j]
			}
		}
	}
}

// addSpans adds delta into x in place over the valid rows (the residual
// connection; elementwise, so in-place matches autograd.Add's bits).
func addSpans(x, delta *tensor.Tensor, spans []tensor.Span) {
	for _, s := range spans {
		lo, hi := s.Lo*x.Cols, s.Hi*x.Cols
		xd, dd := x.Data[lo:hi], delta.Data[lo:hi]
		for i, v := range dd {
			xd[i] += v
		}
	}
}

// feedForwardSpans mirrors nn.FeedForward.Forward: L1, GELU (in place —
// elementwise, so the bits match the out-of-place autograd op), L2.
func feedForwardSpans(sc *tensor.BatchScratch, ff *nn.FeedForward, x *tensor.Tensor, spans []tensor.Span) *tensor.Tensor {
	h := linearSpans(sc, ff.L1, x, spans)
	const c = 0.7978845608028654 // sqrt(2/pi), as in autograd.GELU
	for _, s := range spans {
		seg := h.Data[s.Lo*h.Cols : s.Hi*h.Cols]
		for i, v := range seg {
			seg[i] = 0.5 * v * (1 + math.Tanh(c*(v+0.044715*v*v*v)))
		}
	}
	return linearSpans(sc, ff.L2, h, spans)
}

// attnSelf runs multi-head self-attention per segment: queries, keys and
// values all come from x's span. mask, when non-nil, is the shared
// additive causal bias (every segment must then be mask.Rows long).
func attnSelf(sc *tensor.BatchScratch, a *nn.MultiHeadAttention, x *tensor.Tensor, spans []tensor.Span, mask *tensor.Tensor) *tensor.Tensor {
	q := linearSpans(sc, a.Wq, x, spans)
	k := linearSpans(sc, a.Wk, x, spans)
	v := linearSpans(sc, a.Wv, x, spans)
	return attnCore(sc, a, q, k, v, spans, spans, mask)
}

// attnCore mirrors nn.MultiHeadAttention.Forward per segment — query rows
// qSpans[i] attend over key/value rows kvSpans[i] — per head,
// slice the head's columns, score q·kᵀ, scale, add the mask, softmax, and
// apply to values; heads concatenate into the output projection. The
// per-head column copies reproduce autograd.SliceCols; scale/mask run in
// place on the scores (elementwise, bit-equal to the autograd
// out-of-place ops); MatMulBTInto matches MatMul(q, Transpose(k)) because
// both accumulate the dot product in ascending index order from 0.
func attnCore(sc *tensor.BatchScratch, a *nn.MultiHeadAttention, q, k, v *tensor.Tensor, qSpans, kvSpans []tensor.Span, mask *tensor.Tensor) *tensor.Tensor {
	d := q.Cols
	dk := a.Dk
	maxQ, maxK := 0, 0
	for i, qs := range qSpans {
		maxQ, maxK = max(maxQ, qs.Len()), max(maxK, kvSpans[i].Len())
	}
	concat := sc.Get(q.Rows, d)
	qh := sc.Get(maxQ, dk)
	kh := sc.Get(maxK, dk)
	vh := sc.Get(maxK, dk)
	score := sc.Get(maxQ, maxK)
	hseg := sc.Get(maxQ, dk)
	scale := 1 / math.Sqrt(float64(dk))

	for h := 0; h < a.Heads; h++ {
		lo := h * dk
		for i, qspan := range qSpans {
			kvspan := kvSpans[i]
			nq, nk := qspan.Len(), kvspan.Len()
			if nq == 0 || nk == 0 {
				continue
			}
			qs := tensor.FromSlice(nq, dk, qh.Data[:nq*dk])
			ks := tensor.FromSlice(nk, dk, kh.Data[:nk*dk])
			vs := tensor.FromSlice(nk, dk, vh.Data[:nk*dk])
			copyCols(qs, q, qspan, lo)
			copyCols(ks, k, kvspan, lo)
			copyCols(vs, v, kvspan, lo)

			sm := tensor.FromSlice(nq, nk, score.Data[:nq*nk])
			tensor.MatMulBTInto(sm, qs, ks, false)
			for i, x := range sm.Data {
				sm.Data[i] = x * scale
			}
			if mask != nil {
				if mask.Rows != nq || mask.Cols != nk {
					panic(fmt.Sprintf("seq2seq: attention mask %dx%d for %dx%d scores", mask.Rows, mask.Cols, nq, nk))
				}
				for i, mv := range mask.Data {
					sm.Data[i] += mv
				}
			}
			tensor.SoftmaxRowsInto(sm, sm)

			hs := tensor.FromSlice(nq, dk, hseg.Data[:nq*dk])
			tensor.MatMulInto(hs, sm, vs, false)
			for r := 0; r < nq; r++ {
				copy(concat.Row(qspan.Lo + r)[lo:lo+dk], hs.Row(r))
			}
		}
	}
	return linearSpans(sc, a.Wo, concat, qSpans)
}

// copyCols copies src's span rows, columns [lo, lo+dst.Cols), into dst.
func copyCols(dst, src *tensor.Tensor, s tensor.Span, lo int) {
	w := dst.Cols
	for r := 0; r < dst.Rows; r++ {
		copy(dst.Row(r), src.Row(s.Lo + r)[lo:lo+w])
	}
}
