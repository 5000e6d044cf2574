// Package decode implements the decoding strategies of paper Section
// 4.2.2: greedy decoding for fragment-set prediction, and beam search,
// diverse beam search and stochastic (sampling) decoding for N-fragments
// prediction. All functions operate on token ids; fragment aggregation
// over the resulting search tree lives in internal/core.
package decode

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/seq2seq"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// Result is one decoded hypothesis: the generated token ids (without BOS,
// with the terminating EOS stripped), the per-step log-probabilities of
// each emitted token (EOS step excluded to stay aligned with IDs), and the
// total sequence log-probability including the EOS step.
type Result struct {
	IDs      []int
	StepLogP []float64
	LogProb  float64
}

// Normalized returns the length-normalized log-probability used for
// ranking hypotheses of different lengths.
func (r Result) Normalized() float64 {
	n := len(r.IDs) + 1 // + EOS
	return r.LogProb / float64(n)
}

// Greedy decodes with the argmax strategy until EOS or maxLen (paper:
// fragment-set prediction uses greedy decoding). It is a one-item
// GreedyBatch.
func Greedy(m seq2seq.Model, src []int, maxLen int) Result {
	return GreedyBatch(m, [][]int{src}, maxLen)[0]
}

// argmaxSkipping returns the most likely token, never PAD/BOS/UNK (the
// model should not emit specials other than EOS; masking them keeps
// degenerate early-training outputs parseable).
func argmaxSkipping(lp []float64) (int, float64) {
	best, bestV := tokenizer.EOS, math.Inf(-1)
	for i, v := range lp {
		if i == tokenizer.PAD || i == tokenizer.BOS || i == tokenizer.UNK {
			continue
		}
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// beamHyp is one open or finished hypothesis. An open beam also records
// where its last step came from — from, the index of the beam it extends
// in the previous step's beam set (-1 before the first step), and tok, the
// token that step appended (BOS before the first) — which is exactly one
// InferBatch.Step row.
type beamHyp struct {
	ids   []int
	steps []float64
	logp  float64
	from  int
	tok   int
}

// Beam runs standard beam search with the given width, returning up to
// width finished hypotheses ranked by length-normalized log-probability.
// It is a one-item SearchBatch.
func Beam(m seq2seq.Model, src []int, maxLen, width int) []Result {
	return SearchBatch(m, [][]int{src}, maxLen, []int{width}, []float64{0})[0]
}

// DiverseBeam runs beam search with a Hamming diversity penalty: at each
// step, a candidate token's score is reduced by penalty for every
// already-expanded beam that chose the same token at this step (Vijayakumar
// et al.; paper Section 4.2.2 "diverse beam search with the default
// dissimilarity setting").
func DiverseBeam(m seq2seq.Model, src []int, maxLen, width int, penalty float64) []Result {
	return SearchBatch(m, [][]int{src}, maxLen, []int{width}, []float64{penalty})[0]
}

type beamCand struct {
	from  int
	tok   int
	logp  float64
	total float64
}

// beamState is the search frontier of one request inside SearchBatch:
// candidate scoring, the diversity penalty, candidate ranking and
// beam/done bookkeeping. The batch driver only supplies each beam's
// next-token log-probabilities.
type beamState struct {
	width     int
	diversity float64
	beams     []beamHyp
	done      []beamHyp
	cands     []beamCand
	chosen    map[int]int
	topIdx    []int
}

func newBeamState(width int, diversity float64) *beamState {
	return &beamState{
		width:     width,
		diversity: diversity,
		beams:     []beamHyp{{from: -1, tok: tokenizer.BOS}},
		cands:     make([]beamCand, 0, width*(width+3)),
	}
}

// alive reports whether another step is useful: some beam is still open
// and fewer than width hypotheses have finished.
func (bs *beamState) alive() bool { return len(bs.beams) > 0 && len(bs.done) < bs.width }

// stepStart resets the per-step candidate pool and, with a diversity
// penalty, the per-step token counts.
func (bs *beamState) stepStart() {
	bs.cands = bs.cands[:0]
	if bs.diversity > 0 {
		if bs.chosen == nil {
			bs.chosen = map[int]int{}
		}
		clear(bs.chosen)
	}
}

// observe scores beam bi's expansion candidates from its next-token
// log-probabilities: top width+3 tokens, specials other than EOS skipped,
// diversity-penalized by how many already-expanded beams chose the same
// token this step. Beams must be observed in ascending order.
func (bs *beamState) observe(bi int, lp []float64) {
	b := bs.beams[bi]
	t := tensor.FromSlice(1, len(lp), lp)
	order := t.TopKRowInto(0, bs.width+3, bs.topIdx)
	bs.topIdx = order[:cap(order)]
	for _, tok := range order {
		if tok == tokenizer.PAD || tok == tokenizer.BOS || tok == tokenizer.UNK {
			continue
		}
		score := lp[tok]
		if bs.diversity > 0 {
			score -= bs.diversity * float64(bs.chosen[tok])
		}
		bs.cands = append(bs.cands, beamCand{from: bi, tok: tok, logp: lp[tok], total: b.logp + score})
		if bs.diversity > 0 {
			bs.chosen[tok]++
		}
	}
}

// stepFinish ranks the step's candidates and selects the next beam set,
// moving EOS candidates to done.
func (bs *beamState) stepFinish() {
	sort.Slice(bs.cands, func(i, j int) bool { return bs.cands[i].total > bs.cands[j].total })
	var next []beamHyp
	for _, c := range bs.cands {
		if len(next) >= bs.width {
			break
		}
		b := bs.beams[c.from]
		if c.tok == tokenizer.EOS {
			bs.done = append(bs.done, beamHyp{
				ids:   append([]int(nil), b.ids...),
				steps: append([]float64(nil), b.steps...),
				logp:  b.logp + c.logp,
			})
			continue
		}
		next = append(next, beamHyp{
			ids:   append(append([]int(nil), b.ids...), c.tok),
			steps: append(append([]float64(nil), b.steps...), c.logp),
			logp:  b.logp + c.logp,
			from:  c.from,
			tok:   c.tok,
		})
	}
	bs.beams = next
}

// results ranks finished plus still-open hypotheses (forced stop at
// maxLen) by length-normalized log-probability, truncated to width.
func (bs *beamState) results() []Result {
	done := append(bs.done, bs.beams...)
	results := make([]Result, 0, len(done))
	for _, d := range done {
		results = append(results, Result{IDs: d.ids, StepLogP: d.steps, LogProb: d.logp})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Normalized() > results[j].Normalized() })
	if len(results) > bs.width {
		results = results[:bs.width]
	}
	return results
}

// Sample draws n independent sequences with stochastic decoding. At each
// step, tokens whose probability is below minFrac times the maximum are
// zeroed (paper: "we set the probability of the tokens with a low score to
// zero") and the rest renormalized before sampling.
func Sample(m seq2seq.Model, src []int, maxLen, n int, minFrac float64, seed int64) []Result {
	ib := seq2seq.NewInferBatch(m, [][]int{src})
	defer ib.Close()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Result, 0, n)
	// One step row: parents[0] is -1 at each sample's first step (a
	// fresh prefix) and 0 after, extending the previous step's only row.
	parents, toks, segs := []int{-1}, []int{tokenizer.BOS}, []int{0}
	probs := make([]float64, m.Config().Vocab)
	var lp []float64
	for s := 0; s < n; s++ {
		parents[0], toks[0] = -1, tokenizer.BOS
		var res Result
		for len(res.IDs) < maxLen {
			lp = logSoftmaxInto(lp, ib.Step(parents, toks, segs).Row(0))
			tok, tokLP := sampleStep(lp, minFrac, rng, probs)
			res.LogProb += tokLP
			if tok == tokenizer.EOS {
				break
			}
			res.IDs = append(res.IDs, tok)
			res.StepLogP = append(res.StepLogP, tokLP)
			parents[0], toks[0] = 0, tok
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Normalized() > out[j].Normalized() })
	return out
}

// sampleStep draws one token from lp's truncated distribution, using
// probs (len(lp) long, overwritten) as scratch.
func sampleStep(lp []float64, minFrac float64, rng *rand.Rand, probs []float64) (int, float64) {
	maxLP := math.Inf(-1)
	for i, v := range lp {
		if i == tokenizer.PAD || i == tokenizer.BOS || i == tokenizer.UNK {
			continue
		}
		if v > maxLP {
			maxLP = v
		}
	}
	cut := maxLP + math.Log(minFrac) // p >= minFrac * pmax
	sum := 0.0
	clear(probs)
	for i, v := range lp {
		if i == tokenizer.PAD || i == tokenizer.BOS || i == tokenizer.UNK || v < cut {
			continue
		}
		p := math.Exp(v)
		probs[i] = p
		sum += p
	}
	x := rng.Float64() * sum
	for i, p := range probs {
		//lint:ignore floateq exact zero marks entries excluded from the sampling mass, not a rounded value
		if p == 0 {
			continue
		}
		x -= p
		if x <= 0 {
			return i, lp[i]
		}
	}
	// Numerical fallback: the max token.
	return argmaxSkipping(lp)
}

// logSoftmaxInto writes the log-softmax of row into dst (grown as needed)
// and returns it.
func logSoftmaxInto(dst, row []float64) []float64 {
	max := math.Inf(-1)
	for _, v := range row {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for _, v := range row {
		sum += math.Exp(v - max)
	}
	lse := max + math.Log(sum)
	if cap(dst) < len(row) {
		dst = make([]float64, len(row))
	}
	dst = dst[:len(row)]
	for i, v := range row {
		dst[i] = v - lse
	}
	return dst
}
