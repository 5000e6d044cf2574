// Package oracle checks served answers against the library: a
// full-quality answer must equal what the trained model directory gives
// through the Recommender methods, and a degraded one must equal the
// popularity fallback derived from the same artifacts.
//
// This is the only part of the end-to-end harness that reaches inside the
// module: it uses modeldir.Load and the Recommender methods the root
// package re-exports, plus the strategy constants those methods take.
package oracle

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"

	"repro"
	"repro/internal/core"
	"repro/internal/modeldir"
	"repro/perfbench/loadgen"
	"repro/perfbench/tally"
)

// Oracle recomputes answers from a model directory. Results are memoised
// per query, so a mix that repeats queries pays the model once.
type Oracle struct {
	rec  *repro.Recommender
	mu   sync.Mutex
	memo map[loadgen.Item]tally.Answer
}

// maxFallback mirrors the popularity snapshot depth qrec-serve derives
// its degraded answers from.
const maxFallback = 25

// Load reads the model directory the served processes were started on.
func Load(dir string) (*Oracle, error) {
	rec, err := modeldir.Load(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &Oracle{rec: rec, memo: map[loadgen.Item]tally.Answer{}}, nil
}

// n resolves the API's default and clamp for the result size.
func n(it loadgen.Item) int {
	switch {
	case it.N <= 0:
		return 3
	case it.N > 25:
		return 25
	}
	return it.N
}

// Want returns the full-quality answer for it.
func (o *Oracle) Want(it loadgen.Item) (tally.Answer, error) {
	o.mu.Lock()
	a, ok := o.memo[it]
	o.mu.Unlock()
	if ok {
		return a, nil
	}
	k := n(it)
	var tmpl []string
	var err error
	if it.PrevSQL != "" {
		tmpl, err = o.rec.NextTemplatesContext(it.PrevSQL, it.SQL, k)
	} else {
		tmpl, err = o.rec.NextTemplates(it.SQL, k)
	}
	if err != nil {
		return tally.Answer{}, fmt.Errorf("oracle: templates: %w", err)
	}
	opts := repro.DefaultNFragmentsOptions()
	switch it.Strategy {
	case "", "beam":
	case "diverse-beam":
		opts.Strategy = core.StrategyDiverseBeam
	case "sampling":
		opts.Strategy = core.StrategySampling
	default:
		return tally.Answer{}, fmt.Errorf("oracle: unknown strategy %q", it.Strategy)
	}
	frags, err := o.rec.NextFragments(it.SQL, k, opts)
	if err != nil {
		return tally.Answer{}, fmt.Errorf("oracle: fragments: %w", err)
	}
	a = tally.Answer{Templates: tmpl, Fragments: wire(frags, k)}
	o.mu.Lock()
	o.memo[it] = a
	o.mu.Unlock()
	return a, nil
}

// Degraded returns the fallback answer for it.
func (o *Oracle) Degraded(it loadgen.Item) tally.Answer {
	k := n(it)
	tmpl := o.rec.PopularTemplates(maxFallback)
	if len(tmpl) > k {
		tmpl = tmpl[:k]
	}
	return tally.Answer{Templates: tmpl, Fragments: wire(o.rec.PopularFragments(maxFallback), k), Degraded: true}
}

// wire renders fragments the way the API does: kinds by name, lists cut
// to k, empty kinds omitted.
func wire(frags map[repro.FragmentKind][]string, k int) map[string][]string {
	out := map[string][]string{}
	for kind, list := range frags {
		if len(list) > k {
			list = list[:k]
		}
		if len(list) > 0 {
			out[kind.String()] = list
		}
	}
	return out
}

// Check compares one served answer with the oracle's. It returns a
// description of the first difference, or "" when they agree.
func (o *Oracle) Check(it loadgen.Item, got tally.Answer) (string, error) {
	want := o.Degraded(it)
	if !got.Degraded {
		var err error
		if want, err = o.Want(it); err != nil {
			return "", err
		}
	}
	if got.Templates == nil {
		got.Templates = []string{}
	}
	if want.Templates == nil {
		want.Templates = []string{}
	}
	if got.Fragments == nil {
		got.Fragments = map[string][]string{}
	}
	if !reflect.DeepEqual(got.Templates, want.Templates) || !reflect.DeepEqual(got.Fragments, want.Fragments) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		return fmt.Sprintf("served %s, oracle %s", g, w), nil
	}
	return "", nil
}
