// Package seq2seq implements the paper's two sequence-to-sequence
// architectures — the Transformer and the convolutional ConvS2S — behind a
// common Model interface used by training (internal/train), decoding
// (internal/decode) and the fine-tuned template classifier
// (internal/classify).
//
// Both models map the preceding query Q_i (token ids) to the next query
// Q_{i+1}: the encoder produces a next-query representation, the decoder
// generates the target autoregressively with teacher forcing during
// training (paper Section 4.1.1).
package seq2seq

import (
	"fmt"
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/nn"
)

// Arch names a model architecture.
type Arch string

// Supported architectures. The paper evaluates the transformer ("tfm")
// and ConvS2S; GRU is the RNN baseline the paper defers to its full
// version.
const (
	Transformer Arch = "transformer"
	ConvS2S     Arch = "convs2s"
	GRU         Arch = "gru"
)

// Config holds model hyper-parameters (paper Section 6.2.4 tunes heads,
// hidden size, layers, batch size, dropout and learning rate; we default
// to CPU-sized values).
type Config struct {
	Arch     Arch
	Vocab    int
	DModel   int
	Heads    int     // transformer attention heads
	Layers   int     // encoder and decoder depth
	FFHidden int     // transformer feed-forward hidden size
	Kernel   int     // ConvS2S kernel width
	MaxLen   int     // positional table size
	Dropout  float64 // applied to embeddings and block outputs in training
	// PreLN selects pre-layer-norm transformer blocks (default true; the
	// post-LN variant exists for the ablation bench).
	PostLN bool
}

// DefaultConfig returns the CPU-scale configuration used across the
// experiments.
func DefaultConfig(arch Arch, vocab int) Config {
	return Config{
		Arch:     arch,
		Vocab:    vocab,
		DModel:   32,
		Heads:    2,
		Layers:   1,
		FFHidden: 64,
		Kernel:   3,
		MaxLen:   160,
		Dropout:  0.1,
	}
}

// Model is a trainable encoder-decoder over token-id sequences.
type Model interface {
	nn.Module
	// Config returns the hyper-parameters the model was built with.
	Config() Config
	// Encode maps a source sequence to its n×d representation.
	Encode(src []int, train bool, rng *rand.Rand) *autograd.Value
	// DecodeLogits returns m×vocab logits for each position of the
	// (BOS-prefixed) target input, teacher-forced against the encoder
	// output.
	DecodeLogits(enc *autograd.Value, tgtIn []int, train bool, rng *rand.Rand) *autograd.Value
}

// New builds a model for the configuration. The seed fixes parameter
// initialization so experiments are reproducible.
func New(cfg Config, seed int64) (Model, error) {
	rng := rand.New(rand.NewSource(seed))
	switch cfg.Arch {
	case Transformer:
		return newTransformer(cfg, rng), nil
	case ConvS2S:
		return newConvS2S(cfg, rng), nil
	case GRU:
		return newGRU(cfg, rng), nil
	default:
		return nil, fmt.Errorf("seq2seq: unknown architecture %q", cfg.Arch)
	}
}

// Replicate builds a weight-sharing replica of m for data-parallel
// training: the replica's parameter Values point at the ORIGINAL weight
// tensors (zero copy, always in sync) but own private gradient buffers, so
// concurrent backward passes never race. Only gradients may be read from a
// replica; optimizer steps must run on the original.
func Replicate(m Model) (Model, error) {
	rep, err := New(m.Config(), 0)
	if err != nil {
		return nil, err
	}
	byName, err := nn.ByName(m.Params())
	if err != nil {
		return nil, err
	}
	for _, p := range rep.Params() {
		orig, ok := byName[p.Name]
		if !ok {
			return nil, fmt.Errorf("seq2seq: replica parameter %q missing from original", p.Name)
		}
		if !p.V.T.SameShape(orig.T) {
			return nil, fmt.Errorf("seq2seq: replica parameter %q shape mismatch", p.Name)
		}
		p.V.T = orig.T
	}
	return rep, nil
}

// withPrefix appends mod's parameters to out, each named name.param.
func withPrefix(out []nn.Param, name string, mod nn.Module) []nn.Param {
	for _, p := range mod.Params() {
		out = append(out, nn.Param{Name: name + "." + p.Name, V: p.V})
	}
	return out
}

// CountParams sums the element counts of all trainable tensors (Table 3's
// parameter counts).
func CountParams(m nn.Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.V.T.Rows * p.V.T.Cols
	}
	return n
}
