package classify

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/autograd"
	"repro/internal/seq2seq"
)

func batchHeadModel(t *testing.T, arch seq2seq.Arch, postLN bool) *Classifier {
	t.Helper()
	cfg := seq2seq.DefaultConfig(arch, 31)
	cfg.DModel = 16
	cfg.Heads = 2
	cfg.Layers = 1
	cfg.FFHidden = 24
	cfg.MaxLen = 24
	cfg.PostLN = postLN
	m, err := seq2seq.New(cfg, 7)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	classes := make([]string, 13)
	for i := range classes {
		classes[i] = fmt.Sprintf("SELECT c%d FROM t", i)
	}
	return New(m, 20, classes, 5)
}

// TestPredictTopNBatchBitIdentical checks the batched classification head
// against the top-N of the autograd Logits over mixed batch compositions
// and per-item N values (random untrained weights make near-ties likely,
// so any drift in pooling or head arithmetic would reorder the top-N).
func TestPredictTopNBatchBitIdentical(t *testing.T) {
	variants := []struct {
		arch   seq2seq.Arch
		postLN bool
	}{{seq2seq.Transformer, false}, {seq2seq.Transformer, true}, {seq2seq.ConvS2S, false}, {seq2seq.GRU, false}}
	for _, v := range variants {
		c := batchHeadModel(t, v.arch, v.postLN)
		rng := rand.New(rand.NewSource(3))
		for _, batch := range []int{1, 2, 5} {
			srcs := make([][]int, batch)
			ns := make([]int, batch)
			for i := range srcs {
				l := 1 + rng.Intn(12)
				s := make([]int, l)
				for j := range s {
					s[j] = rng.Intn(31)
				}
				srcs[i] = s
				ns[i] = 1 + rng.Intn(4)
			}
			got := c.PredictTopNBatch(srcs, ns)
			for i, src := range srcs {
				logits := c.Logits(src, false, nil)
				var want []string
				for _, id := range logits.T.TopKRow(0, ns[i]) {
					want = append(want, c.Classes[id])
				}
				autograd.Free(logits)
				if len(got[i]) != len(want) {
					t.Fatalf("%v b=%d item %d: %d classes, want %d", v, batch, i, len(got[i]), len(want))
				}
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("%v b=%d item %d rank %d: %q, want %q", v, batch, i, j, got[i][j], want[j])
					}
				}
			}
		}
	}
}
