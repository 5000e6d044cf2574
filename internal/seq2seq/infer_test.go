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

// TestInferBatchDecodeBitIdentical drives lockstep decode steps, each row
// extending its own row of the previous step by a random token — several
// rows sharing encoder segments, as beams do — and asserts each row's
// logits match the last row of the sequential DecodeLogits bit for bit.
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

	// Mixed composition: item 0 twice (two beams of one request), then
	// the others — exercising shared encoder segments.
	segs := []int{0, 0, 1, 2}
	parents := []int{-1, -1, -1, -1}
	toks := make([]int, len(segs))
	prefixes := make([][]int, len(segs))
	for T := 1; T <= 6; T++ {
		for i := range segs {
			toks[i] = rng.Intn(m.Config().Vocab)
			prefixes[i] = append(prefixes[i], toks[i])
		}
		logits := ib.Step(parents, toks, segs)
		for i := range parents {
			parents[i] = i
		}
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
		// steps[T-1][i] = row i's prefix of length T, extending row i of
		// the step before.
		steps := make([][][]int, 4)
		for T := range steps {
			steps[T] = make([][]int, len(segs))
			for i := range segs {
				var prev []int
				if T > 0 {
					prev = steps[T-1][i]
				}
				steps[T][i] = append(append([]int(nil), prev...), rng.Intn(m.Config().Vocab))
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
		parents := []int{-1, -1, -1, -1}
		toks := make([]int, len(segs))
		for T, prefixes := range steps {
			for i, p := range prefixes {
				toks[i] = p[T]
			}
			logits := ib.Step(parents, toks, segs)
			parents = []int{0, 1, 2, 3}
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

// stepHistory is one random decode history: per step, the Step arguments
// and each row's full prefix.
type stepHistory struct {
	parents, toks, segs [][]int
	prefixes            [][][]int
}

// randStepHistory draws a history that exercises everything Step
// promises: shared parents (beams forking), previous rows nobody extends
// (beams dropped, requests retiring), parent -1 restarts beside
// continuing rows, rows of different segments in one step, and one chain
// that grows to maxLen before it restarts.
func randStepHistory(rng *rand.Rand, nSegs, vocab, maxLen, steps int) stepHistory {
	var h stepHistory
	var prevPre [][]int
	var prevSegs []int
	for step := 0; step < steps; step++ {
		n := 1 + rng.Intn(6)
		parents, toks, segs := make([]int, n), make([]int, n), make([]int, n)
		pre := make([][]int, n)
		for i := range parents {
			p := -1
			switch {
			case i == 0 && len(prevPre) > 0:
				p = 0 // the long chain
			case len(prevPre) > 0 && rng.Intn(6) != 0:
				p = rng.Intn(len(prevPre))
			}
			if p >= 0 && len(prevPre[p]) == maxLen {
				p = -1
			}
			seg := rng.Intn(nSegs)
			var base []int
			if p >= 0 {
				seg, base = prevSegs[p], prevPre[p]
			}
			parents[i], toks[i], segs[i] = p, rng.Intn(vocab), seg
			pre[i] = append(append([]int(nil), base...), toks[i])
		}
		h.parents = append(h.parents, parents)
		h.toks = append(h.toks, toks)
		h.segs = append(h.segs, segs)
		h.prefixes = append(h.prefixes, pre)
		prevPre, prevSegs = pre, segs
	}
	return h
}

// TestStepMatchesAutograd is the differential property test of
// incremental decoding: over random beam histories (see randStepHistory)
// on 1- and 2-layer, 1- and 2-head transformers, every row of every Step
// must equal the last row of the autograd DecodeLogits over that row's
// full prefix, ==-exact, on both the cached span path and the graph
// path. Close must return every tensor the batch took from tensor.Shared
// and every ledger it took from tensor.Batches.
func TestStepMatchesAutograd(t *testing.T) {
	const maxLen = 12
	for _, layers := range []int{1, 2} {
		for _, heads := range []int{1, 2} {
			cfg := DefaultConfig(Transformer, 37)
			cfg.DModel, cfg.Heads, cfg.Layers, cfg.FFHidden, cfg.MaxLen = 16, heads, layers, 24, maxLen
			m, err := New(cfg, int64(10*layers+heads))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			rng := rand.New(rand.NewSource(int64(layers*7 + heads)))
			for trial := 0; trial < 3; trial++ {
				srcs := randSeqs(rng, 3, cfg.Vocab, 10)
				h := randStepHistory(rng, len(srcs), cfg.Vocab, maxLen, maxLen+6)

				want := make([][][]float64, len(h.prefixes))
				for step, pre := range h.prefixes {
					for i, p := range pre {
						enc := m.Encode(srcs[h.segs[step][i]], false, nil)
						out := m.DecodeLogits(enc, p, false, nil)
						want[step] = append(want[step], append([]float64(nil), out.T.Row(out.T.Rows-1)...))
						autograd.Free(out)
					}
				}

				for path, model := range map[string]Model{"span": m, "graph": struct{ Model }{m}} {
					name := fmt.Sprintf("layers=%d heads=%d trial=%d %s", layers, heads, trial, path)
					shared, batches := tensor.Shared.Stats(), tensor.Batches.Stats()
					ib := NewInferBatch(model, srcs)
					for step := range h.prefixes {
						logits := ib.Step(h.parents[step], h.toks[step], h.segs[step])
						for i, w := range want[step] {
							for j, wv := range w {
								if g := logits.Row(i)[j]; g != wv {
									t.Fatalf("%s step %d row %d (parent %d, prefix len %d): logit %d = %v, want %v",
										name, step, i, h.parents[step][i], len(h.prefixes[step][i]), j, g, wv)
								}
							}
						}
					}
					ib.Close()
					s2, b2 := tensor.Shared.Stats(), tensor.Batches.Stats()
					if gets, puts := s2.Gets-shared.Gets, s2.Puts-shared.Puts; gets != puts {
						t.Fatalf("%s: tensor.Shared unbalanced after Close: %d gets, %d puts", name, gets, puts)
					}
					if gets, puts := b2.Gets-batches.Gets, b2.Puts-batches.Puts; gets != puts {
						t.Fatalf("%s: tensor.Batches unbalanced after Close: %d gets, %d puts", name, gets, puts)
					}
				}
			}
		}
	}
}

// TestStepRejectsMalformed pins Step's argument checks on both paths.
func TestStepRejectsMalformed(t *testing.T) {
	m := inferTestModel(t, false)
	for path, model := range map[string]Model{"span": m, "graph": struct{ Model }{m}} {
		for name, step := range map[string][3][]int{
			"parent beyond the previous rows": {{0, 2}, {5, 6}, {0, 1}},
			"row leaves its parent's segment": {{1}, {5}, {0}},
			"length mismatch":                 {{0}, {5, 6}, {0, 1}},
		} {
			func() {
				ib := NewInferBatch(model, [][]int{{1, 2}, {3}})
				defer ib.Close()
				ib.Step([]int{-1, -1}, []int{1, 2}, []int{0, 1})
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s did not panic", path, name)
					}
				}()
				ib.Step(step[0], step[1], step[2])
			}()
		}
	}
}

// TestInferBatchCloseReleases asserts Close returns the ledger (double
// close and post-close Close are safe no-ops).
func TestInferBatchCloseReleases(t *testing.T) {
	m := inferTestModel(t, false)
	before := tensor.Batches.Stats()
	ib := NewInferBatch(m, [][]int{{1, 2, 3}, {4}})
	_ = ib.Step([]int{-1, -1}, []int{1, 2}, []int{0, 1})
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
