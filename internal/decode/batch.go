// Batched decoding: one padded encoder forward plus one lockstep decode
// loop drives greedy or beam search for a whole micro-batch of requests.
// Each step hands the InferBatch one row per live beam — the index of the
// beam's parent row in the previous step and the token it appends — so
// the drivers never rebuild a prefix. Greedy, Beam and DiverseBeam are
// one-item calls into these drivers; seq2seq.NewInferBatch picks the
// forward (graph-free incremental kernels or the graph-backed driver), so
// nothing here branches on the model, and each result is bit-identical to
// the autograd forward's.
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

	// Step rows: live[row] is the request, parents[row] its row in the
	// previous step (-1 on the first), toks[row] its newest token.
	live := make([]int, len(srcs))
	parents := make([]int, len(srcs))
	toks := make([]int, len(srcs))
	for i := range srcs {
		live[i], parents[i], toks[i] = i, -1, tokenizer.BOS
	}
	var lp []float64
	for step := 0; step < maxLen && len(live) > 0; step++ {
		logits := ib.Step(parents, toks, live)
		next := 0
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
			live[next], parents[next], toks[next] = idx, row, best
			next++
		}
		live, parents, toks = live[:next], parents[:next], toks[:next]
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
		// Step rows, request-ascending then beam-ascending — the order
		// observe() requires: segs[row] is the request, parents[row] the
		// beam's row in the previous step, toks[row] its newest token.
		segs, parents, toks []int
		base                = make([]int, len(srcs)) // request's first row in the last step
		lp                  []float64
	)
	for step := 0; step < maxLen && len(live) > 0; step++ {
		segs, parents, toks = segs[:0], parents[:0], toks[:0]
		for _, idx := range live {
			prev := base[idx]
			base[idx] = len(segs)
			for _, b := range states[idx].beams {
				parent := -1
				if b.from >= 0 {
					parent = prev + b.from
				}
				segs = append(segs, idx)
				parents = append(parents, parent)
				toks = append(toks, b.tok)
			}
		}
		logits := ib.Step(parents, toks, segs)
		row := 0
		for _, idx := range live {
			st := states[idx]
			st.stepStart()
			for bi := range st.beams {
				lp = logSoftmaxInto(lp, logits.Row(row))
				st.observe(bi, lp)
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
