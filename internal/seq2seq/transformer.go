package seq2seq

import (
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// transformerModel is the standard encoder-decoder transformer, pre-LN by
// default for small-data stability (the post-LN original is available for
// the ablation bench).
type transformerModel struct {
	cfg Config

	srcEmb, tgtEmb *nn.Embedding
	pos            *nn.PositionalEncoding

	encBlocks []*encBlock
	decBlocks []*decBlock
	encNorm   *nn.LayerNorm
	decNorm   *nn.LayerNorm
	out       *nn.Linear
}

type encBlock struct {
	attn     *nn.MultiHeadAttention
	ff       *nn.FeedForward
	ln1, ln2 *nn.LayerNorm
}

type decBlock struct {
	self, cross   *nn.MultiHeadAttention
	ff            *nn.FeedForward
	ln1, ln2, ln3 *nn.LayerNorm
}

func newTransformer(cfg Config, rng *rand.Rand) *transformerModel {
	m := &transformerModel{
		cfg:     cfg,
		srcEmb:  nn.NewEmbedding(cfg.Vocab, cfg.DModel, rng),
		tgtEmb:  nn.NewEmbedding(cfg.Vocab, cfg.DModel, rng),
		pos:     nn.NewPositionalEncoding(cfg.MaxLen, cfg.DModel),
		encNorm: nn.NewLayerNorm(cfg.DModel),
		decNorm: nn.NewLayerNorm(cfg.DModel),
		out:     nn.NewLinear(cfg.DModel, cfg.Vocab, rng),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.encBlocks = append(m.encBlocks, &encBlock{
			attn: nn.NewMultiHeadAttention(cfg.DModel, cfg.Heads, rng),
			ff:   nn.NewFeedForward(cfg.DModel, cfg.FFHidden, rng),
			ln1:  nn.NewLayerNorm(cfg.DModel),
			ln2:  nn.NewLayerNorm(cfg.DModel),
		})
		m.decBlocks = append(m.decBlocks, &decBlock{
			self:  nn.NewMultiHeadAttention(cfg.DModel, cfg.Heads, rng),
			cross: nn.NewMultiHeadAttention(cfg.DModel, cfg.Heads, rng),
			ff:    nn.NewFeedForward(cfg.DModel, cfg.FFHidden, rng),
			ln1:   nn.NewLayerNorm(cfg.DModel),
			ln2:   nn.NewLayerNorm(cfg.DModel),
			ln3:   nn.NewLayerNorm(cfg.DModel),
		})
	}
	return m
}

func (m *transformerModel) Config() Config { return m.cfg }

func (m *transformerModel) Encode(src []int, train bool, rng *rand.Rand) *autograd.Value {
	x := m.pos.Add(m.srcEmb.Forward(src), 0)
	x = autograd.Dropout(x, m.cfg.Dropout, rng, train)
	for _, b := range m.encBlocks {
		if m.cfg.PostLN {
			x = b.ln1.Forward(autograd.Add(x, b.attn.Forward(x, x, nil)))
			x = b.ln2.Forward(autograd.Add(x, b.ff.Forward(x)))
		} else {
			n := b.ln1.Forward(x)
			x = autograd.Add(x, autograd.Dropout(b.attn.Forward(n, n, nil), m.cfg.Dropout, rng, train))
			x = autograd.Add(x, autograd.Dropout(b.ff.Forward(b.ln2.Forward(x)), m.cfg.Dropout, rng, train))
		}
	}
	if m.cfg.PostLN {
		return x
	}
	return m.encNorm.Forward(x)
}

func (m *transformerModel) DecodeLogits(enc *autograd.Value, tgtIn []int, train bool, rng *rand.Rand) *autograd.Value {
	x := m.pos.Add(m.tgtEmb.Forward(tgtIn), 0)
	x = autograd.Dropout(x, m.cfg.Dropout, rng, train)
	// Pooled mask: attention consumes it eagerly, so it goes back to the
	// pool when this function returns.
	mask := tensor.Shared.Get(len(tgtIn), len(tgtIn))
	defer tensor.Shared.Put(mask)
	nn.FillCausalMask(mask)
	for _, b := range m.decBlocks {
		if m.cfg.PostLN {
			x = b.ln1.Forward(autograd.Add(x, b.self.Forward(x, x, mask)))
			x = b.ln2.Forward(autograd.Add(x, b.cross.Forward(x, enc, nil)))
			x = b.ln3.Forward(autograd.Add(x, b.ff.Forward(x)))
		} else {
			n := b.ln1.Forward(x)
			x = autograd.Add(x, autograd.Dropout(b.self.Forward(n, n, mask), m.cfg.Dropout, rng, train))
			x = autograd.Add(x, autograd.Dropout(b.cross.Forward(b.ln2.Forward(x), enc, nil), m.cfg.Dropout, rng, train))
			x = autograd.Add(x, autograd.Dropout(b.ff.Forward(b.ln3.Forward(x)), m.cfg.Dropout, rng, train))
		}
	}
	if !m.cfg.PostLN {
		x = m.decNorm.Forward(x)
	}
	return m.out.Forward(x)
}

func (m *transformerModel) Params() []nn.Param {
	out := withPrefix(nil, "src_emb", m.srcEmb)
	out = withPrefix(out, "tgt_emb", m.tgtEmb)
	for i, b := range m.encBlocks {
		pre := prefixN("enc", i)
		out = withPrefix(out, pre+".attn", b.attn)
		out = withPrefix(out, pre+".ff", b.ff)
		out = withPrefix(out, pre+".ln1", b.ln1)
		out = withPrefix(out, pre+".ln2", b.ln2)
	}
	for i, b := range m.decBlocks {
		pre := prefixN("dec", i)
		out = withPrefix(out, pre+".self", b.self)
		out = withPrefix(out, pre+".cross", b.cross)
		out = withPrefix(out, pre+".ff", b.ff)
		out = withPrefix(out, pre+".ln1", b.ln1)
		out = withPrefix(out, pre+".ln2", b.ln2)
		out = withPrefix(out, pre+".ln3", b.ln3)
	}
	out = withPrefix(out, "enc_norm", m.encNorm)
	out = withPrefix(out, "dec_norm", m.decNorm)
	out = withPrefix(out, "out", m.out)
	return out
}
