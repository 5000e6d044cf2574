package core

import (
	"repro/internal/decode"
	"repro/internal/sqlast"
)

// NFragmentsFromTokensBatch runs N-fragments prediction for a micro-batch
// and aggregates each item's search tree. Beam and diverse-beam items
// share one batched decode loop; sampling items each run decode.Sample,
// which keeps one seeded RNG per item (interleaving items would reorder
// its draws). out[i] does not depend on the batch's other items.
func (r *Recommender) NFragmentsFromTokensBatch(srcs [][]int, ns []int, opts []NFragmentsOptions) []map[sqlast.FragmentKind][]string {
	out := make([]map[sqlast.FragmentKind][]string, len(srcs))
	var (
		idx       []int
		bsrcs     [][]int
		widths    []int
		penalties []float64
	)
	for i, o := range opts {
		if o.Strategy == StrategySampling {
			results := decode.Sample(r.Model, srcs[i], r.MaxGenLen, o.Width, o.MinFrac, o.Seed)
			out[i] = AggregateFragments(r.Vocab, results, ns[i])
			continue
		}
		idx = append(idx, i)
		bsrcs = append(bsrcs, srcs[i])
		widths = append(widths, o.Width)
		if o.Strategy == StrategyDiverseBeam {
			penalties = append(penalties, o.Penalty)
		} else {
			penalties = append(penalties, 0)
		}
	}
	results := decode.SearchBatch(r.Model, bsrcs, r.MaxGenLen, widths, penalties)
	for k, i := range idx {
		out[i] = AggregateFragments(r.Vocab, results[k], ns[i])
	}
	return out
}
