package seq2seq

import (
	"math"
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// gruModel is the RNN seq2seq baseline (the paper's Section 3 refers the
// RNN variant to the full version; we implement a GRU encoder-decoder with
// dot-product attention, the standard pre-transformer recipe). It is the
// slowest of the three architectures — recurrence prevents the positions
// from being processed in parallel — which is exactly the contrast the
// paper draws when motivating the transformer and ConvS2S.
type gruModel struct {
	cfg Config

	srcEmb, tgtEmb   *nn.Embedding
	encCell, decCell *gruCell
	// attnOut mixes [h; context] back to d before the vocab projection.
	attnOut *nn.Linear
	out     *nn.Linear

	zeroH *autograd.Value // shared constant 1×d initial hidden state
}

// gruCell holds the three gates' projections: x-side (with bias) and
// h-side (bias folded into the x-side).
type gruCell struct {
	xz, xr, xh *nn.Linear
	hz, hr, hh *nn.Linear
	d          int
}

func newGRUCell(d int, rng *rand.Rand) *gruCell {
	return &gruCell{
		xz: nn.NewLinear(d, d, rng), xr: nn.NewLinear(d, d, rng), xh: nn.NewLinear(d, d, rng),
		hz: nn.NewLinear(d, d, rng), hr: nn.NewLinear(d, d, rng), hh: nn.NewLinear(d, d, rng),
		d: d,
	}
}

// step advances the hidden state by one input row x (1×d).
func (c *gruCell) step(x, h *autograd.Value) *autograd.Value {
	z := autograd.Sigmoid(autograd.Add(c.xz.Forward(x), c.hz.Forward(h)))
	r := autograd.Sigmoid(autograd.Add(c.xr.Forward(x), c.hr.Forward(h)))
	hTilde := autograd.Tanh(autograd.Add(c.xh.Forward(x), c.hh.Forward(autograd.Mul(r, h))))
	// h' = (1-z) ⊙ h + z ⊙ h̃ = h + z ⊙ (h̃ - h)
	delta := autograd.Add(hTilde, autograd.Scale(h, -1))
	return autograd.Add(h, autograd.Mul(z, delta))
}

func (c *gruCell) params(prefixStr string) []nn.Param {
	out := withPrefix(nil, prefixStr+".xz", c.xz)
	out = withPrefix(out, prefixStr+".xr", c.xr)
	out = withPrefix(out, prefixStr+".xh", c.xh)
	out = withPrefix(out, prefixStr+".hz", c.hz)
	out = withPrefix(out, prefixStr+".hr", c.hr)
	return withPrefix(out, prefixStr+".hh", c.hh)
}

func newGRU(cfg Config, rng *rand.Rand) *gruModel {
	return &gruModel{
		cfg:     cfg,
		srcEmb:  nn.NewEmbedding(cfg.Vocab, cfg.DModel, rng),
		tgtEmb:  nn.NewEmbedding(cfg.Vocab, cfg.DModel, rng),
		encCell: newGRUCell(cfg.DModel, rng),
		decCell: newGRUCell(cfg.DModel, rng),
		attnOut: nn.NewLinear(2*cfg.DModel, cfg.DModel, rng),
		out:     nn.NewLinear(cfg.DModel, cfg.Vocab, rng),
		zeroH:   autograd.NewConst(tensor.New(1, cfg.DModel)),
	}
}

func (m *gruModel) Config() Config { return m.cfg }

func (m *gruModel) Encode(src []int, train bool, rng *rand.Rand) *autograd.Value {
	emb := m.srcEmb.Forward(src)
	emb = autograd.Dropout(emb, m.cfg.Dropout, rng, train)
	h := m.zeroH
	states := make([]*autograd.Value, len(src))
	for i := range src {
		h = m.encCell.step(rowOf(emb, i), h)
		states[i] = h
	}
	return autograd.ConcatRows(states...)
}

func (m *gruModel) DecodeLogits(enc *autograd.Value, tgtIn []int, train bool, rng *rand.Rand) *autograd.Value {
	emb := m.tgtEmb.Forward(tgtIn)
	emb = autograd.Dropout(emb, m.cfg.Dropout, rng, train)
	// Initial hidden state: the final encoder state.
	h := rowOf(enc, enc.T.Rows-1)
	scale := 1 / math.Sqrt(float64(m.cfg.DModel))
	outs := make([]*autograd.Value, len(tgtIn))
	for i := range tgtIn {
		x := rowOf(emb, i)
		h = m.decCell.step(x, h)
		// Dot-product attention over encoder states.
		scores := autograd.Scale(autograd.MatMul(h, autograd.TransposeV(enc)), scale)
		attn := autograd.SoftmaxRows(scores)
		ctx := autograd.MatMul(attn, enc)
		mixed := autograd.Tanh(m.attnOut.Forward(autograd.ConcatCols(h, ctx)))
		outs[i] = mixed
	}
	return m.out.Forward(autograd.ConcatRows(outs...))
}

// rowOf extracts row i of a value as a 1×cols value with gradient support.
func rowOf(v *autograd.Value, i int) *autograd.Value {
	return autograd.GatherRows(v, []int{i})
}

func (m *gruModel) Params() []nn.Param {
	out := withPrefix(nil, "src_emb", m.srcEmb)
	out = withPrefix(out, "tgt_emb", m.tgtEmb)
	out = append(out, m.encCell.params("enc_cell")...)
	out = append(out, m.decCell.params("dec_cell")...)
	out = withPrefix(out, "attn_out", m.attnOut)
	out = withPrefix(out, "out", m.out)
	return out
}
