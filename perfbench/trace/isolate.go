package trace

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/autograd"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/seq2seq"
	"repro/internal/server"
	"repro/internal/tokenizer"
	"repro/perfbench/loadgen"
	"repro/perfbench/mix"
	"repro/perfbench/stats"
)

// Isolated timings run after the replay on the same inputs, one call at a
// time, each repeated isoReps times.
const (
	isoInputs = 16   // distinct queries for the model-layer timings
	isoCalls  = 2000 // calls for the JSON and tokenizer timings
	isoReps   = 3
)

// isolated holds the per-call timings.
type isolated struct {
	jsonUs, tokenizeUs  float64
	encodeMs, beamMs    float64
	aggregateUs, gflops float64
	tokensPerCall       float64
	inputs              int
	flopsNote           string
}

// timeIt returns the median duration of isoReps calls of f.
func timeIt(f func()) time.Duration {
	var ds []float64
	for i := 0; i < isoReps; i++ {
		t0 := time.Now()
		f()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(stats.Median(ds))
}

func isolate(rec *core.Recommender, m *mix.Mix, outs []loadgen.Outcome) (*isolated, error) {
	iso := &isolated{}
	var jsonUs, tokUs []float64
	for i, req := range m.Timed {
		if i >= isoCalls {
			break
		}
		for _, it := range req.Items {
			tokUs = append(tokUs, stats.Us(timeIt(func() { _, _ = tokenizer.Tokenize(it.SQL) })))
		}
		o := outs[i]
		if o.Err != nil || o.Status != 200 {
			continue
		}
		var in, resp any = new(server.RecommendRequest), new(server.RecommendResponse)
		if req.Path == loadgen.PathBatch {
			in, resp = new(server.BatchRequest), new(server.BatchResponse)
		}
		if err := json.Unmarshal(o.Body, resp); err != nil {
			return nil, fmt.Errorf("decode response: %w", err)
		}
		if err := json.Unmarshal(req.Body, in); err != nil {
			return nil, fmt.Errorf("decode request: %w", err)
		}
		jsonUs = append(jsonUs, stats.Us(timeIt(func() {
			_ = json.Unmarshal(req.Body, in) // decoded once above
			_, _ = json.Marshal(resp)
		})))
	}
	iso.jsonUs = stats.Median(jsonUs)
	iso.tokenizeUs = stats.Median(tokUs)

	// Model layers on the mix's first distinct queries, beam search as
	// the default strategy runs it.
	seen := map[string]bool{}
	var srcs [][]int
	for _, req := range m.Timed {
		for _, it := range req.Items {
			if seen[it.SQL] || len(srcs) == isoInputs {
				continue
			}
			seen[it.SQL] = true
			toks, err := tokenizer.Tokenize(it.SQL)
			if err != nil {
				return nil, fmt.Errorf("tokenize %q: %w", it.SQL, err)
			}
			srcs = append(srcs, rec.Vocab.Encode(toks, true))
		}
	}
	iso.inputs = len(srcs)
	opts := core.DefaultNFragmentsOptions()
	cm := &countingModel{Model: rec.Model}
	var enc, beam, agg []float64
	var beamTotal time.Duration
	for _, src := range srcs {
		enc = append(enc, stats.Ms(timeIt(func() { autograd.Free(rec.Model.Encode(src, false, nil)) })))
		var results []decode.Result
		d := timeIt(func() { results = decode.Beam(rec.Model, src, rec.MaxGenLen, opts.Width) })
		beam = append(beam, stats.Ms(d))
		beamTotal += d
		agg = append(agg, stats.Us(timeIt(func() { core.AggregateFragments(rec.Vocab, results, 3) })))
		decode.Beam(cm, src, rec.MaxGenLen, opts.Width)
	}
	iso.encodeMs = stats.Median(enc)
	iso.beamMs = stats.Median(beam)
	iso.aggregateUs = stats.Median(agg)
	iso.tokensPerCall = ratio(cm.steps, len(srcs))
	cfg := rec.Model.Config()
	if cfg.Arch != seq2seq.Transformer {
		iso.flopsNote = fmt.Sprintf("absent: the FLOP model covers the transformer, the served model is %s", cfg.Arch)
	} else if beamTotal > 0 {
		iso.gflops = cm.flops / float64(len(srcs)) / (float64(beamTotal) / float64(len(srcs)))
		iso.flopsNote = fmt.Sprintf("FLOPs computed from tensor shapes (matmuls only, %.1f MFLOP per beam call) over isolated decode.Beam time", cm.flops/float64(len(srcs))/1e6)
	}
	return iso, nil
}

// countingModel passes calls through to the served model and counts
// decoder steps and matrix-multiply FLOPs from the shapes of each call.
type countingModel struct {
	seq2seq.Model
	steps int
	flops float64
}

func (c *countingModel) Encode(src []int, train bool, rng *rand.Rand) *autograd.Value {
	cfg := c.Config()
	n, d, f := float64(len(src)), float64(cfg.DModel), float64(cfg.FFHidden)
	// Per layer: Q, K, V and output projections, scores and weighted sum,
	// and the two feed-forward matmuls.
	c.flops += float64(cfg.Layers) * (4*2*n*d*d + 2*2*n*n*d + 2*2*n*d*f)
	return c.Model.Encode(src, train, rng)
}

func (c *countingModel) DecodeLogits(enc *autograd.Value, tgtIn []int, train bool, rng *rand.Rand) *autograd.Value {
	cfg := c.Config()
	m, n := float64(len(tgtIn)), float64(enc.T.Rows)
	d, f, v := float64(cfg.DModel), float64(cfg.FFHidden), float64(cfg.Vocab)
	self := 4*2*m*d*d + 2*2*m*m*d
	// Cross attention projects the encoder output again on every call.
	cross := 2*2*m*d*d + 2*2*n*d*d + 2*2*m*n*d
	ff := 2 * 2 * m * d * f
	c.flops += float64(cfg.Layers)*(self+cross+ff) + 2*m*d*v
	c.steps++
	return c.Model.DecodeLogits(enc, tgtIn, train, rng)
}
