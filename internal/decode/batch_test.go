package decode

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/seq2seq"
	"repro/internal/tokenizer"
)

// batchTestModel builds a small untrained (but deterministic) real
// transformer — random weights are exactly what stresses bit-identity,
// since near-ties in the distribution make any drift in the forward pass
// change the decoded tokens.
func batchTestModel(t testing.TB, postLN bool) seq2seq.Model {
	t.Helper()
	cfg := seq2seq.DefaultConfig(seq2seq.Transformer, 29)
	cfg.DModel = 16
	cfg.Heads = 2
	cfg.Layers = 2
	cfg.FFHidden = 24
	cfg.MaxLen = 48
	cfg.PostLN = postLN
	m, err := seq2seq.New(cfg, 11)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func randBatchSrcs(rng *rand.Rand, n, vocab, maxLen int) [][]int {
	out := make([][]int, n)
	for i := range out {
		l := 1 + rng.Intn(maxLen)
		if rng.Intn(4) == 0 {
			l = 1 // empty-prefix shape
		}
		s := make([]int, l)
		for j := range s {
			s[j] = 4 + rng.Intn(vocab-4)
		}
		out[i] = s
	}
	return out
}

// srcsOfLength draws n payload-token sources of one length.
func srcsOfLength(rng *rand.Rand, n, length, vocab int) [][]int {
	srcs := make([][]int, n)
	for i := range srcs {
		srcs[i] = make([]int, length)
		for j := range srcs[i] {
			srcs[i][j] = 4 + rng.Intn(vocab-4)
		}
	}
	return srcs
}

func assertResultsEqual(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.LogProb != w.LogProb {
			t.Fatalf("%s result %d: LogProb %v, want %v", what, i, g.LogProb, w.LogProb)
		}
		if len(g.IDs) != len(w.IDs) || len(g.StepLogP) != len(w.StepLogP) {
			t.Fatalf("%s result %d: lengths %d/%d, want %d/%d", what, i, len(g.IDs), len(g.StepLogP), len(w.IDs), len(w.StepLogP))
		}
		for j := range w.IDs {
			if g.IDs[j] != w.IDs[j] {
				t.Fatalf("%s result %d: id %d = %d, want %d", what, i, j, g.IDs[j], w.IDs[j])
			}
		}
		for j := range w.StepLogP {
			if g.StepLogP[j] != w.StepLogP[j] {
				t.Fatalf("%s result %d: step lp %d = %v, want %v", what, i, j, g.StepLogP[j], w.StepLogP[j])
			}
		}
	}
}

// autogradOracle hides m's concrete type, so NewInferBatch drives it
// through the graph-backed path: Encode and DecodeLogits, the autograd
// forward the graph-free kernels must reproduce bit for bit.
func autogradOracle(m seq2seq.Model) seq2seq.Model { return struct{ seq2seq.Model }{m} }

// TestGreedyBatchBitIdentical is the greedy half of the batched-inference
// property test: random batch compositions — mixed source lengths,
// singleton batches, larger batches, empty-prefix (length-1) sources —
// must decode to exactly the per-item Greedy results of the autograd
// oracle (run under -race in tier-1, which also exercises the kernels'
// worker fan-out).
func TestGreedyBatchBitIdentical(t *testing.T) {
	m := batchTestModel(t, false)
	oracle := autogradOracle(m)
	rng := rand.New(rand.NewSource(17))
	for _, batch := range []int{1, 2, 4, 7} {
		for trial := 0; trial < 3; trial++ {
			srcs := randBatchSrcs(rng, batch, m.Config().Vocab, 14)
			got := GreedyBatch(m, srcs, 12)
			for i, src := range srcs {
				want := Greedy(oracle, src, 12)
				assertResultsEqual(t, fmt.Sprintf("greedy b=%d trial=%d item=%d", batch, trial, i),
					[]Result{got[i]}, []Result{want})
			}
		}
	}
}

// TestSearchBatchBitIdentical is the beam half: mixed per-request widths
// and diversity penalties in one batch must reproduce the autograd
// oracle's per-item Beam/DiverseBeam results exactly — same hypotheses,
// same order, same log-probability bits.
func TestSearchBatchBitIdentical(t *testing.T) {
	m := batchTestModel(t, false)
	oracle := autogradOracle(m)
	rng := rand.New(rand.NewSource(19))
	for _, batch := range []int{1, 3, 5} {
		srcs := randBatchSrcs(rng, batch, m.Config().Vocab, 12)
		widths := make([]int, batch)
		penalties := make([]float64, batch)
		for i := range widths {
			widths[i] = 1 + rng.Intn(4)
			if i%2 == 1 {
				penalties[i] = 0.5
			}
		}
		got := SearchBatch(m, srcs, 10, widths, penalties)
		for i, src := range srcs {
			var want []Result
			if penalties[i] > 0 {
				want = DiverseBeam(oracle, src, 10, widths[i], penalties[i])
			} else {
				want = Beam(oracle, src, 10, widths[i])
			}
			assertResultsEqual(t, fmt.Sprintf("search b=%d item=%d w=%d p=%v", batch, i, widths[i], penalties[i]),
				got[i], want)
		}
	}
}

// TestGraphBackedBatchMatchesSingle covers a model without span kernels
// (post-LN here): its graph-backed batch, with several requests sharing
// the decode loop, must decode each item exactly as a one-item call does.
func TestGraphBackedBatchMatchesSingle(t *testing.T) {
	m := batchTestModel(t, true)
	rng := rand.New(rand.NewSource(23))
	srcs := randBatchSrcs(rng, 3, m.Config().Vocab, 8)
	got := GreedyBatch(m, srcs, 8)
	for i, src := range srcs {
		want := Greedy(m, src, 8)
		assertResultsEqual(t, fmt.Sprintf("post-LN greedy %d", i), []Result{got[i]}, []Result{want})
	}
	widths := []int{2, 3, 2}
	penalties := []float64{0, 0.5, 0}
	gotS := SearchBatch(m, srcs, 8, widths, penalties)
	for i := range srcs {
		var want []Result
		if penalties[i] > 0 {
			want = DiverseBeam(m, srcs[i], 8, widths[i], penalties[i])
		} else {
			want = Beam(m, srcs[i], 8, widths[i])
		}
		assertResultsEqual(t, fmt.Sprintf("post-LN search %d", i), gotS[i], want)
	}
}

// TestSampleMatchesOracle: sampling reads its logits from a one-item
// InferBatch; with the same seed it must draw exactly what the autograd
// oracle draws.
func TestSampleMatchesOracle(t *testing.T) {
	m := batchTestModel(t, false)
	rng := rand.New(rand.NewSource(31))
	for i, src := range randBatchSrcs(rng, 4, m.Config().Vocab, 10) {
		got := Sample(m, src, 8, 5, 0.05, int64(i))
		want := Sample(autogradOracle(m), src, 8, 5, 0.05, int64(i))
		assertResultsEqual(t, fmt.Sprintf("sample %d", i), got, want)
	}
}

// BenchmarkBatchedBeam measures the serving-shaped decode cost: batched
// beam search over B requests against B one-item (B=1) graph-free
// searches. The batch sweep pins one source length so only B varies; the
// length sweep holds B at 4.
func BenchmarkBatchedBeam(b *testing.B) {
	m := batchTestModel(b, false)
	rng := rand.New(rand.NewSource(29))
	run := func(batch, length int) {
		srcs := srcsOfLength(rng, batch, length, m.Config().Vocab)
		widths := make([]int, batch)
		for i := range widths {
			widths[i] = 3
		}
		penalties := make([]float64, batch)
		b.Run(fmt.Sprintf("b%d_len%d/batched", batch, length), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SearchBatch(m, srcs, 10, widths, penalties)
			}
		})
		b.Run(fmt.Sprintf("b%d_len%d/perItemB1", batch, length), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					Beam(m, src, 10, 3)
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

	// Output-length sweep: one request whose EOS logit is pinned far
	// down, so every beam runs all maxLen steps. With incremental
	// decoding a step costs about the same at any prefix length, so
	// ns/op over maxLen stays roughly flat as maxLen grows.
	noEOS := batchTestModel(b, false)
	pinned := false
	for _, p := range noEOS.Params() {
		if p.Name == "out.b" {
			p.V.T.Data[tokenizer.EOS], pinned = -1e6, true
		}
	}
	if !pinned {
		b.Fatal("no output bias named out.b")
	}
	src := srcsOfLength(rng, 1, 8, m.Config().Vocab)
	for _, maxLen := range []int{8, 24, 48} {
		b.Run(fmt.Sprintf("b1_out%d", maxLen), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SearchBatch(noEOS, src, maxLen, []int{3}, []float64{0})
			}
		})
	}
}
