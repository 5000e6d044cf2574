package seq2seq

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/nn"
)

// convS2SModel is the convolutional seq2seq architecture of Gehring et al.
// (paper Section 3): stacked width-k convolutions with GLU gating and
// residuals in the encoder; causal convolutions plus per-layer dot-product
// attention over the encoder output in the decoder.
type convS2SModel struct {
	cfg Config

	srcEmb, tgtEmb *nn.Embedding
	pos            *nn.PositionalEncoding

	encConvs []*nn.ConvGLU
	decConvs []*nn.ConvGLU
	// attnProj projects decoder states to the encoder space per layer for
	// the attention score (ConvS2S-style single-head attention).
	attnProj []*nn.Linear
	out      *nn.Linear
}

func newConvS2S(cfg Config, rng *rand.Rand) *convS2SModel {
	m := &convS2SModel{
		cfg:    cfg,
		srcEmb: nn.NewEmbedding(cfg.Vocab, cfg.DModel, rng),
		tgtEmb: nn.NewEmbedding(cfg.Vocab, cfg.DModel, rng),
		pos:    nn.NewPositionalEncoding(cfg.MaxLen, cfg.DModel),
		out:    nn.NewLinear(cfg.DModel, cfg.Vocab, rng),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.encConvs = append(m.encConvs, nn.NewConvGLU(cfg.DModel, cfg.Kernel, false, rng))
		m.decConvs = append(m.decConvs, nn.NewConvGLU(cfg.DModel, cfg.Kernel, true, rng))
		m.attnProj = append(m.attnProj, nn.NewLinear(cfg.DModel, cfg.DModel, rng))
	}
	return m
}

func (m *convS2SModel) Config() Config { return m.cfg }

func (m *convS2SModel) Encode(src []int, train bool, rng *rand.Rand) *autograd.Value {
	x := m.pos.Add(m.srcEmb.Forward(src), 0)
	x = autograd.Dropout(x, m.cfg.Dropout, rng, train)
	for _, c := range m.encConvs {
		x = c.Forward(x)
	}
	return x
}

func (m *convS2SModel) DecodeLogits(enc *autograd.Value, tgtIn []int, train bool, rng *rand.Rand) *autograd.Value {
	x := m.pos.Add(m.tgtEmb.Forward(tgtIn), 0)
	x = autograd.Dropout(x, m.cfg.Dropout, rng, train)
	scale := 1 / math.Sqrt(float64(m.cfg.DModel))
	for i, c := range m.decConvs {
		x = c.Forward(x)
		// Single-head attention over the encoder states, residual.
		q := m.attnProj[i].Forward(x)
		scores := autograd.Scale(autograd.MatMul(q, autograd.TransposeV(enc)), scale)
		attn := autograd.SoftmaxRows(scores)
		ctx := autograd.MatMul(attn, enc)
		x = autograd.Scale(autograd.Add(x, ctx), math.Sqrt(0.5))
	}
	return m.out.Forward(x)
}

func (m *convS2SModel) Params() []nn.Param {
	out := withPrefix(nil, "src_emb", m.srcEmb)
	out = withPrefix(out, "tgt_emb", m.tgtEmb)
	for i := range m.encConvs {
		out = withPrefix(out, prefixN("enc_conv", i), m.encConvs[i])
	}
	for i := range m.decConvs {
		out = withPrefix(out, prefixN("dec_conv", i), m.decConvs[i])
		out = withPrefix(out, prefixN("attn_proj", i), m.attnProj[i])
	}
	out = withPrefix(out, "out", m.out)
	return out
}

// prefixN builds "name0", "name1", ... block prefixes.
func prefixN(name string, i int) string { return fmt.Sprintf("%s%d", name, i) }
