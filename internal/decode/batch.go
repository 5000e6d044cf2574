// Batched decoding: one padded encoder forward plus one lockstep decode
// loop drives greedy or beam search for a whole micro-batch of requests.
// Decoding is lockstep by construction — at step t every live beam of
// every live request has a prefix of exactly t+1 tokens — so the decode
// stacks need no padding. Greedy, Beam and DiverseBeam are one-item calls
// into these drivers; seq2seq.NewInferBatch picks the forward (graph-free
// kernels or the graph-backed driver), so nothing here branches on the
// model, and each result is bit-identical to the autograd forward's.
package decode

import (
	"repro/internal/seq2seq"
	"repro/internal/tokenizer"
)

// GreedyBatch decodes every src with the argmax strategy, batching the
// per-step decoder passes. Result i corresponds to srcs[i] and is
// independent of the batch's other items.
func GreedyBatch(m seq2seq.Model, srcs [][]int, maxLen int) []Result {
	results := make([]Result, len(srcs))
	ib := seq2seq.NewInferBatch(m, srcs)
	defer ib.Close()

	live := make([]int, len(srcs)) // live[row] = request index
	prefixes := make([][]int, len(srcs))
	for i := range srcs {
		live[i] = i
		prefixes[i] = append([]int(nil), tokenizer.BOS)
	}
	segs := make([]int, 0, len(srcs))
	prefs := make([][]int, 0, len(srcs))
	var lp []float64
	for step := 0; step < maxLen && len(live) > 0; step++ {
		segs, prefs = segs[:0], prefs[:0]
		for _, idx := range live {
			segs = append(segs, idx)
			prefs = append(prefs, prefixes[idx])
		}
		logits := ib.DecodeLastLogits(prefs, segs)
		nextLive := live[:0]
		for row, idx := range live {
			lp = logSoftmaxInto(lp, logits.Row(row))
			best, bestLP := argmaxSkipping(lp)
			res := &results[idx]
			res.LogProb += bestLP
			if best == tokenizer.EOS {
				continue
			}
			res.IDs = append(res.IDs, best)
			res.StepLogP = append(res.StepLogP, bestLP)
			prefixes[idx] = append(prefixes[idx], best)
			nextLive = append(nextLive, idx)
		}
		live = nextLive
	}
	return results
}

// SearchBatch runs beam search (penalties[i] == 0) or diverse beam search
// (penalties[i] > 0) for every src in one batched decode loop. widths and
// penalties are per-request; results[i] ranks up to widths[i] hypotheses
// for srcs[i], independent of the batch's other items.
func SearchBatch(m seq2seq.Model, srcs [][]int, maxLen int, widths []int, penalties []float64) [][]Result {
	results := make([][]Result, len(srcs))
	ib := seq2seq.NewInferBatch(m, srcs)
	defer ib.Close()

	states := make([]*beamState, len(srcs))
	live := make([]int, 0, len(srcs))
	for i := range srcs {
		states[i] = newBeamState(widths[i], penalties[i])
		live = append(live, i)
	}
	var (
		segs  []int
		prefs [][]int
		rows  []int // rows[k] = beam index within its request, parallel to segs
		lp    []float64
	)
	for step := 0; step < maxLen && len(live) > 0; step++ {
		// Stack every live beam of every live request, request-ascending
		// then beam-ascending — the order observe() requires.
		segs, prefs, rows = segs[:0], prefs[:0], rows[:0]
		for _, idx := range live {
			for bi, b := range states[idx].beams {
				p := make([]int, 0, len(b.ids)+1)
				p = append(p, tokenizer.BOS)
				p = append(p, b.ids...)
				prefs = append(prefs, p)
				segs = append(segs, idx)
				rows = append(rows, bi)
			}
		}
		logits := ib.DecodeLastLogits(prefs, segs)
		row := 0
		for _, idx := range live {
			st := states[idx]
			st.stepStart()
			for range st.beams {
				lp = logSoftmaxInto(lp, logits.Row(row))
				st.observe(rows[row], lp)
				row++
			}
			st.stepFinish()
		}
		nextLive := live[:0]
		for _, idx := range live {
			if states[idx].alive() {
				nextLive = append(nextLive, idx)
			}
		}
		live = nextLive
	}
	for i, st := range states {
		results[i] = st.results()
	}
	return results
}
