package seq2seq

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// randSeqs builds a random batch of token sequences with mixed lengths in
// [1, maxLen], including occasional length-1 sequences (the empty-prefix
// shape: BOS+EOS around nothing).
func randSeqs(rng *rand.Rand, n, vocab, maxLen int) [][]int {
	out := make([][]int, n)
	for i := range out {
		l := 1 + rng.Intn(maxLen)
		if rng.Intn(5) == 0 {
			l = 1
		}
		s := make([]int, l)
		for j := range s {
			s[j] = rng.Intn(vocab)
		}
		out[i] = s
	}
	return out
}

func inferTestModel(t *testing.T, postLN bool) Model {
	t.Helper()
	cfg := DefaultConfig(Transformer, 37)
	cfg.DModel = 16
	cfg.Heads = 2
	cfg.Layers = 2
	cfg.FFHidden = 24
	cfg.MaxLen = 32
	cfg.PostLN = postLN
	m, err := New(cfg, 3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// TestInferBatchEncodeBitIdentical stacks random batch compositions
// (mixed lengths, singleton, larger batches) and asserts every segment of
// the batched encoder output matches the sequential Encode bit for bit,
// across worker counts (run under -race in tier-1).
func TestInferBatchEncodeBitIdentical(t *testing.T) {
	m := inferTestModel(t, false)
	rng := rand.New(rand.NewSource(5))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		for _, batch := range []int{1, 2, 5, 8} {
			srcs := randSeqs(rng, batch, m.Config().Vocab, m.Config().MaxLen)
			ib := NewInferBatch(m, srcs)
			for i, src := range srcs {
				want := m.Encode(src, false, nil)
				got := ib.EncSegment(i)
				if got.Rows != want.T.Rows || got.Cols != want.T.Cols {
					t.Fatalf("w=%d b=%d seg %d: shape %dx%d, want %dx%d",
						workers, batch, i, got.Rows, got.Cols, want.T.Rows, want.T.Cols)
				}
				for j := range want.T.Data {
					if got.Data[j] != want.T.Data[j] {
						t.Fatalf("w=%d b=%d seg %d: element %d = %v, want %v",
							workers, batch, i, j, got.Data[j], want.T.Data[j])
					}
				}
				autograd.Free(want)
			}
			ib.Close()
		}
	}
}

// TestInferBatchDecodeBitIdentical drives lockstep decode steps over
// random prefixes — several items sharing encoder segments, as beams do —
// and asserts each item's last-position logits match the sequential
// DecodeLogits bit for bit.
func TestInferBatchDecodeBitIdentical(t *testing.T) {
	m := inferTestModel(t, false)
	rng := rand.New(rand.NewSource(6))
	srcs := randSeqs(rng, 3, m.Config().Vocab, 12)
	ib := NewInferBatch(m, srcs)
	defer ib.Close()

	// Sequential encoder states for the reference path.
	encs := make([]*autograd.Value, len(srcs))
	for i, src := range srcs {
		encs[i] = m.Encode(src, false, nil)
	}
	defer func() {
		for _, e := range encs {
			autograd.Free(e)
		}
	}()

	for T := 1; T <= 6; T++ {
		// Mixed composition: item 0 twice (two beams of one request), then
		// the others — exercising shared encoder segments.
		segs := []int{0, 0, 1, 2}
		prefixes := make([][]int, len(segs))
		for i, seg := range segs {
			p := make([]int, T)
			for j := range p {
				p[j] = rng.Intn(m.Config().Vocab)
			}
			prefixes[i] = p
			_ = seg
		}
		logits := ib.DecodeLastLogits(prefixes, segs)
		if logits.Rows != len(segs) || logits.Cols != m.Config().Vocab {
			t.Fatalf("T=%d: logits %dx%d, want %dx%d", T, logits.Rows, logits.Cols, len(segs), m.Config().Vocab)
		}
		for i, seg := range segs {
			want := m.DecodeLogits(encs[seg], prefixes[i], false, nil)
			wrow := want.T.Row(want.T.Rows - 1)
			grow := logits.Row(i)
			for j := range wrow {
				if grow[j] != wrow[j] {
					t.Fatalf("T=%d item %d: logit %d = %v, want %v", T, i, j, grow[j], wrow[j])
				}
			}
			autograd.Free(want, encs[seg])
		}
	}
}

// TestGraphBatchMatchesAutograd covers the models without span kernels
// (post-LN transformer, GRU, ConvS2S): their InferBatch must reproduce
// Encode and the last row of DecodeLogits exactly — shared encoder
// segments included — and Close must return every pooled tensor the
// batch took from tensor.Shared.
func TestGraphBatchMatchesAutograd(t *testing.T) {
	models := map[string]Model{"post-LN": inferTestModel(t, true)}
	for _, arch := range []Arch{GRU, ConvS2S} {
		cfg := DefaultConfig(arch, 37)
		cfg.MaxLen = 16
		m, err := New(cfg, 1)
		if err != nil {
			t.Fatalf("New(%v): %v", arch, err)
		}
		models[string(arch)] = m
	}
	for name, m := range models {
		rng := rand.New(rand.NewSource(8))
		srcs := randSeqs(rng, 3, m.Config().Vocab, 10)
		segs := []int{0, 0, 1, 2}
		steps := make([][][]int, 4) // steps[T-1][i] = prefix i of length T
		for T := range steps {
			steps[T] = make([][]int, len(segs))
			for i := range segs {
				p := make([]int, T+1)
				for j := range p {
					p[j] = rng.Intn(m.Config().Vocab)
				}
				steps[T][i] = p
			}
		}

		// Reference values from the autograd forward, copied out and
		// freed before the pool counters are snapshotted.
		wantEnc := make([][]float64, len(srcs))
		wantLogits := make([][][]float64, len(steps))
		for i, src := range srcs {
			enc := m.Encode(src, false, nil)
			wantEnc[i] = append([]float64(nil), enc.T.Data...)
			autograd.Free(enc)
		}
		for T, prefixes := range steps {
			for i, seg := range segs {
				enc := m.Encode(srcs[seg], false, nil)
				out := m.DecodeLogits(enc, prefixes[i], false, nil)
				wantLogits[T] = append(wantLogits[T], append([]float64(nil), out.T.Row(out.T.Rows-1)...))
				autograd.Free(out)
			}
		}

		before := tensor.Shared.Stats()
		ib := NewInferBatch(m, srcs)
		for i := range srcs {
			got := ib.EncSegment(i)
			if len(got.Data) != len(wantEnc[i]) || got.Rows != len(srcs[i]) {
				t.Fatalf("%s seg %d: %dx%d encoder output, want %d elements", name, i, got.Rows, got.Cols, len(wantEnc[i]))
			}
			for j, w := range wantEnc[i] {
				if got.Data[j] != w {
					t.Fatalf("%s seg %d: element %d = %v, want %v", name, i, j, got.Data[j], w)
				}
			}
		}
		for T, prefixes := range steps {
			logits := ib.DecodeLastLogits(prefixes, segs)
			for i, want := range wantLogits[T] {
				for j, w := range want {
					if g := logits.Row(i)[j]; g != w {
						t.Fatalf("%s T=%d item %d: logit %d = %v, want %v", name, T+1, i, j, g, w)
					}
				}
			}
		}
		ib.Close()
		ib.Close()
		after := tensor.Shared.Stats()
		if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
			t.Fatalf("%s: tensor.Shared unbalanced after Close: %d gets, %d puts", name, gets, puts)
		}
	}
}

// TestInferBatchCloseReleases asserts Close returns the ledger (double
// close and post-close Close are safe no-ops).
func TestInferBatchCloseReleases(t *testing.T) {
	m := inferTestModel(t, false)
	before := tensor.Batches.Stats()
	ib := NewInferBatch(m, [][]int{{1, 2, 3}, {4}})
	_ = ib.DecodeLastLogits([][]int{{1}, {2}}, []int{0, 1})
	ib.Close()
	ib.Close()
	after := tensor.Batches.Stats()
	if got, want := after.Puts-before.Puts, after.Gets-before.Gets; got != want {
		t.Fatalf("arena gets/puts unbalanced: %d gets, %d puts", want, got)
	}
}

// BenchmarkBatchedEncode compares one batched encoder forward against B
// autograd Encode calls on the same inputs — the kernel-level half of the
// serving micro-batch win (no graph nodes, no grad buffers, shared
// dispatch). The batch sweep pins one source length so only B varies; the
// length sweep holds B at 4.
func BenchmarkBatchedEncode(b *testing.B) {
	cfg := DefaultConfig(Transformer, 37)
	cfg.MaxLen = 32
	m, err := New(cfg, 3)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(9))
	run := func(batch, length int) {
		srcs := make([][]int, batch)
		for i := range srcs {
			srcs[i] = make([]int, length)
			for j := range srcs[i] {
				srcs[i][j] = rng.Intn(cfg.Vocab)
			}
		}
		b.Run(fmt.Sprintf("b%d_len%d/batched", batch, length), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewInferBatch(m, srcs).Close()
			}
		})
		b.Run(fmt.Sprintf("b%d_len%d/autograd", batch, length), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range srcs {
					autograd.Free(m.Encode(s, false, nil))
				}
			}
		})
	}
	for _, batch := range []int{2, 4, 8} {
		run(batch, 8)
	}
	for _, length := range []int{2, 16} {
		run(4, length)
	}
}
