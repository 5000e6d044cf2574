// Inference-only forward pass: every decode and classification call, for
// one request or a serving micro-batch, runs through an InferBatch.
//
// The pre-LN transformer runs graph-free span kernels: the batch's source
// sequences are stacked into one padded matrix (stride L = max sequence
// length, valid rows tracked as tensor.Spans). Every kernel mirrors the
// exact floating-point operation order of the autograd forward in
// transformer.go/nn.go/autograd.go — same accumulation order, same
// separate bias pass after the GEMM, same scale-then-softmax attention —
// so each request's outputs are bit-identical to the autograd forward,
// without its graph nodes and gradient buffers.
//
// Decoding is incremental: a Step extends rows of the previous step by
// one token, and the span path runs only the new position of each row
// through the decoder, attending over a cache of the self-attention keys
// and values of every earlier position. That cache is exact, not an
// approximation: in the full-prefix forward an earlier position's masked
// scores underflow to exactly zero weight, so its hidden state is the one
// it had when it was the newest position (the argument is spelled out at
// selfKV and in DESIGN §12). Every other Model (ConvS2S, GRU, post-LN,
// wrappers) gets graphBatch, the autograd forward behind the same
// interface, which recomputes each row's whole prefix per step, so
// callers never branch on the model.
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
	// Step runs one decode step and returns the next-token logits as a
	// len(toks)×vocab tensor, reused by the next call. Row i is the
	// prefix of the previous step's row parents[i] (-1: the empty
	// prefix) followed by toks[i]; it attends over encoder segment
	// segs[i], so beams of one request share its encoder state. A row
	// with a parent keeps the parent's segment. Several rows may share a
	// parent, and a previous row no parent names is dropped.
	Step(parents, toks, segs []int) *tensor.Tensor
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
// DecodeLogits once per row per step over the row's whole prefix, keeping
// the last row and freeing each step's graph at once (the encoder graphs
// live until Close).
type graphBatch struct {
	m        Model
	encs     []*autograd.Value
	prefixes [][]int        // the last step's rows
	segs     []int          // the last step's segments
	logits   *tensor.Tensor // last-step logits, reused between steps
}

func newGraphBatch(m Model, srcs [][]int) *graphBatch {
	g := &graphBatch{m: m, encs: make([]*autograd.Value, len(srcs))}
	for i, src := range srcs {
		g.encs[i] = m.Encode(src, false, nil)
	}
	return g
}

func (g *graphBatch) EncSegment(i int) *tensor.Tensor { return g.encs[i].T }

func (g *graphBatch) Step(parents, toks, segs []int) *tensor.Tensor {
	g.segs = checkStep(parents, toks, segs, g.segs)
	prefixes := make([][]int, len(toks))
	for i, p := range parents {
		var pre []int
		if p >= 0 {
			pre = g.prefixes[p]
		}
		prefixes[i] = append(append(make([]int, 0, len(pre)+1), pre...), toks[i])
	}
	g.prefixes = prefixes
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
	g.encs, g.prefixes, g.segs = nil, nil, nil
	if g.logits != nil {
		tensor.Shared.Put(g.logits)
		g.logits = nil
	}
}

// checkStep panics on a malformed Step call — mismatched lengths, an
// empty step, a parent outside the previous step's rows, or a row that
// leaves its parent's segment — and returns segs copied into prev's
// storage, the segments the next call checks against.
func checkStep(parents, toks, segs, prev []int) []int {
	n := len(toks)
	if n == 0 || len(parents) != n || len(segs) != n {
		panic(fmt.Sprintf("seq2seq: decode step with %d parents / %d toks / %d segs", len(parents), n, len(segs)))
	}
	for i, p := range parents {
		if p < -1 || p >= len(prev) {
			panic(fmt.Sprintf("seq2seq: decode step parent %d outside the previous %d rows", p, len(prev)))
		}
		if p >= 0 && segs[i] != prev[p] {
			panic(fmt.Sprintf("seq2seq: decode step row %d moves from segment %d to %d", i, prev[p], segs[i]))
		}
	}
	return append(prev[:0], segs...)
}

// spanBatch is the pre-LN transformer's graph-free InferBatch: the
// stacked encoder output, its spans, and (lazily) the cross-attention K/V
// and the self-attention cache reused by every decode step, all in a
// BatchScratch ledger.
type spanBatch struct {
	m     *transformerModel
	sc    *tensor.BatchScratch
	spans []tensor.Span
	enc   *tensor.Tensor

	// Cross-attention K/V per decoder block, projected from enc once on
	// the first decode step (the autograd path recomputes them every
	// step; the projection is row-local so caching is bit-identical).
	crossK, crossV []*tensor.Tensor

	self selfKV

	// Per-step span lists, reused between steps: rows[i] is step row i,
	// encSpans[i] its encoder segment.
	rows, encSpans []tensor.Span

	logits *tensor.Tensor // last-step logits, reused between steps
}

// selfKV is the decoder self-attention cache. For decoder block l, k[l]
// and v[l] hold the projected key and value rows of every position of
// every row of the last step; row i's positions are rows spans[i] of
// those tensors, in position order. A step gathers each new row's parent
// positions into the spare tensors, appends the new position's K/V row
// and swaps the two sets, so beam reorder, shared parents and dropped
// rows cost one copy of the live prefixes and nothing else.
//
// Why cached rows equal the full-prefix recompute, bit for bit: every op
// of a decoder block is row-local except causal self-attention. In the
// full forward the last position's mask row is all zeros, so its scores
// are the cached-key scores. An earlier position r has -1e9 added to the
// scores of positions after r; exp of those underflows to exactly 0, the
// zeros come after r in the ascending softmax sum (adding +0 changes no
// bit) and matMulRange skips them as exact-zero weights. So position r's
// output at every layer is what it was on the step that appended r, by
// induction over layers — which is what the cache holds.
type selfKV struct {
	k, v           []*tensor.Tensor
	spareK, spareV []*tensor.Tensor
	spans, spare   []tensor.Span
	segs           []int // the last step's segments
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
	ib.self = selfKV{}
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
		addSpans(x, attnSelf(tmp, blk.attn, n, ib.spans), ib.spans)
		n2 := layerNormSpans(tmp, blk.ln2, x, ib.spans)
		addSpans(x, feedForwardSpans(tmp, blk.ff, n2, ib.spans), ib.spans)
	}
	// encNorm output is batch-lifetime: decode steps and classification
	// heads read it for as long as the batch lives.
	enc := ib.sc.Get(x.Rows, d)
	layerNormSpansInto(enc, m.encNorm, x, ib.spans)
	return enc
}

// Step runs only each row's new position through the decoder; earlier
// positions enter through the self-attention cache.
func (ib *spanBatch) Step(parents, toks, segs []int) *tensor.Tensor {
	m := ib.m
	d := m.cfg.DModel
	n := len(toks)
	c := &ib.self
	c.segs = checkStep(parents, toks, segs, c.segs)
	ib.ensureCrossKV()

	tmp := tensor.Batches.Get()
	defer tensor.Batches.Put(tmp)

	// New cache layout: row i's positions are its parent's plus one, at
	// consecutive cache rows.
	c.spare = c.spare[:0]
	ib.rows, ib.encSpans = ib.rows[:0], ib.encSpans[:0]
	used := 0
	for i, p := range parents {
		l := 1
		if p >= 0 {
			l += c.spans[p].Len()
		}
		c.spare = append(c.spare, tensor.Span{Lo: used, Hi: used + l})
		used += l
		ib.rows = append(ib.rows, tensor.Span{Lo: i, Hi: i + 1})
		ib.encSpans = append(ib.encSpans, ib.spans[segs[i]])
	}
	ib.growSelfKV(used)

	x := tmp.Get(n, d)
	table := m.pos.Table()
	for i, tok := range toks {
		embedToken(x.Row(i), m.tgtEmb, table, tok, c.spare[i].Len()-1)
	}
	full := []tensor.Span{{Lo: 0, Hi: n}}
	for bi, blk := range m.decBlocks {
		nrm := layerNormSpans(tmp, blk.ln1, x, full)
		q := linearSpans(tmp, blk.self.Wq, nrm, full)
		k := linearSpans(tmp, blk.self.Wk, nrm, full)
		v := linearSpans(tmp, blk.self.Wv, nrm, full)
		ck, cv := c.spareK[bi], c.spareV[bi]
		for i, p := range parents {
			s := c.spare[i]
			if p >= 0 {
				ps := c.spans[p]
				copy(ck.Data[s.Lo*d:(s.Hi-1)*d], c.k[bi].Data[ps.Lo*d:ps.Hi*d])
				copy(cv.Data[s.Lo*d:(s.Hi-1)*d], c.v[bi].Data[ps.Lo*d:ps.Hi*d])
			}
			copy(ck.Row(s.Hi-1), k.Row(i))
			copy(cv.Row(s.Hi-1), v.Row(i))
		}
		addSpans(x, attnCore(tmp, blk.self, q, ck, cv, ib.rows, c.spare), full)
		n2 := layerNormSpans(tmp, blk.ln2, x, full)
		cq := linearSpans(tmp, blk.cross.Wq, n2, full)
		addSpans(x, attnCore(tmp, blk.cross, cq, ib.crossK[bi], ib.crossV[bi], ib.rows, ib.encSpans), full)
		n3 := layerNormSpans(tmp, blk.ln3, x, full)
		addSpans(x, feedForwardSpans(tmp, blk.ff, n3, full), full)
	}
	c.k, c.spareK = c.spareK, c.k
	c.v, c.spareV = c.spareV, c.v
	c.spans, c.spare = c.spare, c.spans

	// decNorm and the output projection are row-local; the autograd
	// forward runs them over every position and the caller keeps the
	// last, which is this row.
	xn := layerNormSpans(tmp, m.decNorm, x, full)
	if ib.logits != nil {
		tensor.Shared.Put(ib.logits)
	}
	ib.logits = tensor.Shared.Get(n, m.cfg.Vocab)
	tensor.MatMulSpansInto(ib.logits, xn, m.out.W.T, full)
	tensor.AddRowSpansInto(ib.logits, ib.logits, m.out.B.T, full)
	return ib.logits
}

// growSelfKV makes the spare cache tensors hold at least rows rows,
// doubling past the need so a growing prefix reallocates O(log) times.
// Outgrown tensors stay in the batch ledger until Close.
func (ib *spanBatch) growSelfKV(rows int) {
	c := &ib.self
	blocks := len(ib.m.decBlocks)
	if c.spareK != nil && (blocks == 0 || c.spareK[0].Rows >= rows) {
		return
	}
	if c.spareK == nil {
		c.spareK = make([]*tensor.Tensor, blocks)
		c.spareV = make([]*tensor.Tensor, blocks)
	}
	d := ib.m.cfg.DModel
	for i := range c.spareK {
		c.spareK[i] = ib.sc.Get(2*rows, d)
		c.spareV[i] = ib.sc.Get(2*rows, d)
	}
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
	table := pos.Table()
	for si, seq := range seqs {
		if len(seq) > table.Rows {
			panic(fmt.Sprintf("nn: sequence length %d exceeds positional table %d", len(seq), table.Rows))
		}
		for p, id := range seq {
			embedToken(x.Row(spans[si].Lo+p), emb, table, id, p)
		}
	}
}

// embedToken writes token id's embedding at position p into dst.
func embedToken(dst []float64, emb *nn.Embedding, table *tensor.Tensor, id, p int) {
	if p >= table.Rows {
		panic(fmt.Sprintf("nn: sequence length %d exceeds positional table %d", p+1, table.Rows))
	}
	scale := math.Sqrt(float64(emb.D))
	wrow := emb.W.T.Row(id)
	trow := table.Row(p)
	for j := range dst {
		dst[j] = wrow[j]*scale + trow[j]
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

// attnSelf runs unmasked multi-head self-attention per segment (the
// encoder's): queries, keys and values all come from x's span.
func attnSelf(sc *tensor.BatchScratch, a *nn.MultiHeadAttention, x *tensor.Tensor, spans []tensor.Span) *tensor.Tensor {
	q := linearSpans(sc, a.Wq, x, spans)
	k := linearSpans(sc, a.Wk, x, spans)
	v := linearSpans(sc, a.Wv, x, spans)
	return attnCore(sc, a, q, k, v, spans, spans)
}

// attnCore mirrors nn.MultiHeadAttention.Forward per segment — query rows
// qSpans[i] attend over key/value rows kvSpans[i] — per head,
// slice the head's columns, score q·kᵀ, scale, softmax, and apply to
// values; heads concatenate into the output projection. No call needs a
// mask: the encoder and cross-attention have none, and a decode step's
// query is the newest position, whose causal mask row is all zeros. The
// per-head column copies reproduce autograd.SliceCols; the scale runs in
// place on the scores (elementwise, bit-equal to the autograd
// out-of-place op); MatMulBTInto matches MatMul(q, Transpose(k)) because
// both accumulate the dot product in ascending index order from 0.
func attnCore(sc *tensor.BatchScratch, a *nn.MultiHeadAttention, q, k, v *tensor.Tensor, qSpans, kvSpans []tensor.Span) *tensor.Tensor {
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
