package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/classify"
	"repro/internal/decode"
	"repro/internal/seq2seq"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/tokenizer"
	"repro/internal/train"
	"repro/internal/workload"
)

// TrainConfig selects what to train (Figure 3, steps 1-2).
type TrainConfig struct {
	Arch seq2seq.Arch
	// SeqAware trains on (Q_i, Q_{i+1}) prediction; false trains the
	// seq-less reconstruction ablation on (Q_i, Q_i).
	SeqAware bool
	// FineTune initializes the classifier from the trained seq2seq
	// encoder; false trains the classifier from scratch (the "without
	// pre-trained encoder" comparison).
	FineTune bool
	// FreezeEncoder stops encoder updates during classification
	// fine-tuning (ablation).
	FreezeEncoder bool
	// Model overrides the architecture hyper-parameters when non-nil.
	Model *seq2seq.Config
	// Seq2Seq and Classifier training options.
	SeqOpts train.Options
	ClsOpts train.Options
	// ClsHidden is the classifier MLP hidden width.
	ClsHidden int
	// MaxTrainPairs caps the training pairs used (0 = all); evaluation
	// splits are untouched.
	MaxTrainPairs int
	// UseContext concatenates Q_{i-1} into the encoder input (the paper's
	// Section 2 multi-query extension, two-query variant).
	UseContext bool
	Seed       int64
	// Resume, when non-nil, continues the seq2seq stage from a training
	// checkpoint instead of starting fresh (see internal/checkpoint). The
	// dataset and options must match the checkpointed run.
	Resume *checkpoint.TrainState
}

// ErrInterrupted is returned by Train when the seq2seq stage is stopped
// cooperatively (SeqOpts.Stop) before finishing; the final checkpoint —
// when SeqOpts.Checkpoint is configured — holds the state to resume from.
var ErrInterrupted = errors.New("core: training interrupted")

// DefaultTrainConfig returns the CPU-scale configuration used in the
// experiment harness.
func DefaultTrainConfig(arch seq2seq.Arch) TrainConfig {
	seqOpts := train.DefaultOptions()
	clsOpts := train.DefaultOptions()
	clsOpts.Epochs = 6
	// The training loops are clock-free by design (lint: detrand); the
	// wall clock for TrainTime telemetry is injected here, outside the
	// deterministic core.
	seqOpts.Clock = time.Now
	clsOpts.Clock = time.Now
	return TrainConfig{
		Arch:      arch,
		SeqAware:  true,
		FineTune:  true,
		SeqOpts:   seqOpts,
		ClsOpts:   clsOpts,
		ClsHidden: 128,
		Seed:      1,
	}
}

// Recommender is the trained online recommendation system (Figure 3,
// steps 3-4).
type Recommender struct {
	Vocab      *tokenizer.Vocab
	Model      seq2seq.Model
	Classifier *classify.Classifier
	// MaxGenLen bounds generated sequences during decoding.
	MaxGenLen int

	// Training telemetry (feeds Table 3).
	SeqResult *train.Result
	ClsResult *classify.Result
}

// Train runs the full offline stage on a prepared dataset: step 1 trains
// the seq2seq model on query pairs; step 2 fine-tunes the encoder with a
// classification head for next-template prediction.
func Train(ds *Dataset, cfg TrainConfig) (*Recommender, error) {
	if cfg.MaxTrainPairs > 0 && len(ds.Train) > cfg.MaxTrainPairs {
		capped := *ds
		capped.Train = ds.Train[:cfg.MaxTrainPairs]
		ds = &capped
	}
	mcfg := seq2seq.DefaultConfig(cfg.Arch, ds.Vocab.Size())
	if cfg.Model != nil {
		mcfg = *cfg.Model
		mcfg.Arch = cfg.Arch
		mcfg.Vocab = ds.Vocab.Size()
	}
	model, err := seq2seq.New(mcfg, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Step 1: seq2seq training on (Q_i, Q_{i+1}) — or (Q_i, Q_i) for the
	// seq-less ablation. With UseContext the source concatenates Q_{i-1}.
	mkExamples := SeqExamples
	if cfg.UseContext {
		mkExamples = SeqExamplesContext
	}
	seqTrain := mkExamples(ds.Vocab, ds.Train, cfg.SeqAware)
	seqVal := mkExamples(ds.Vocab, ds.Val, cfg.SeqAware)
	var seqRes *train.Result
	if cfg.Resume != nil {
		seqRes, err = train.Resume(model, seqTrain, seqVal, cfg.SeqOpts, cfg.Resume)
	} else {
		seqRes, err = train.Seq2Seq(model, seqTrain, seqVal, cfg.SeqOpts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: seq2seq training: %w", err)
	}
	if seqRes.Interrupted {
		return nil, fmt.Errorf("%w during seq2seq stage (epoch %d)", ErrInterrupted, seqRes.Epochs)
	}

	// Step 2: template classification. Fine-tuning reuses the trained
	// encoder; the non-fine-tuned variant gets a fresh model of the same
	// architecture.
	encModel := model
	if !cfg.FineTune {
		encModel, err = seq2seq.New(mcfg, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
	}
	cls := classify.New(encModel, cfg.ClsHidden, ds.Classes, cfg.Seed+2)
	cls.FreezeEncoder = cfg.FreezeEncoder
	mkCls := ClsExamples
	if cfg.UseContext {
		mkCls = ClsExamplesContext
	}
	clsTrain := mkCls(ds.Vocab, cls, ds.Train)
	clsVal := mkCls(ds.Vocab, cls, ds.Val)
	clsRes, err := classify.Fit(cls, clsTrain, clsVal, cfg.ClsOpts)
	if err != nil {
		return nil, fmt.Errorf("core: classifier training: %w", err)
	}

	return &Recommender{
		Vocab:      ds.Vocab,
		Model:      model,
		Classifier: cls,
		MaxGenLen:  cfg.SeqOpts.MaxLen,
		SeqResult:  seqRes,
		ClsResult:  clsRes,
	}, nil
}

// SeqExamples encodes pairs for seq2seq training. The encoder input is the
// BOS/EOS-wrapped current query; the decoder target is the next query
// (seq-aware) or the current query again (seq-less reconstruction).
// Exported so composed experiments (e.g. cross-workload transfer) can
// train stages on different pair sets.
func SeqExamples(v *tokenizer.Vocab, pairs []workload.Pair, seqAware bool) []train.Example {
	out := make([]train.Example, 0, len(pairs))
	for _, p := range pairs {
		tgt := p.Next
		if !seqAware {
			tgt = p.Cur
		}
		out = append(out, train.Example{
			Src: v.Encode(p.Cur.Tokens, true),
			Tgt: v.Encode(tgt.Tokens, false),
		})
	}
	return out
}

// ClsExamples labels each Q_i with the class of template(Q_{i+1}),
// dropping pairs whose template falls outside the class set (rare
// templates, per Section 5.4.1).
func ClsExamples(v *tokenizer.Vocab, c *classify.Classifier, pairs []workload.Pair) []classify.Example {
	var out []classify.Example
	for _, p := range pairs {
		class := c.ClassOf(p.Next.Template)
		if class < 0 {
			continue
		}
		out = append(out, classify.Example{Src: v.Encode(p.Cur.Tokens, true), Class: class})
	}
	return out
}

// encodeSQL tokenizes and encodes a raw SQL statement for model input.
func (r *Recommender) encodeSQL(sql string) ([]int, error) {
	toks, err := tokenizer.Tokenize(sql)
	if err != nil {
		return nil, err
	}
	return r.Vocab.Encode(toks, true), nil
}

// NextTemplates predicts the N most likely templates of the next query
// (step 3).
func (r *Recommender) NextTemplates(sql string, n int) ([]string, error) {
	src, err := r.encodeSQL(sql)
	if err != nil {
		return nil, err
	}
	return r.Classifier.PredictTopN(src, n), nil
}

// NextTemplatesTokens is NextTemplates for pre-tokenized input (used by
// the evaluation harness to avoid re-parsing).
func (r *Recommender) NextTemplatesTokens(tokens []string, n int) []string {
	return r.Classifier.PredictTopN(r.Vocab.Encode(tokens, true), n)
}

// NextFragmentSet predicts the full fragment set of the next query via
// greedy decoding (step 4, fragment-set prediction).
func (r *Recommender) NextFragmentSet(sql string) (*sqlast.FragmentSet, error) {
	src, err := r.encodeSQL(sql)
	if err != nil {
		return nil, err
	}
	return r.FragmentSetFromTokens(src), nil
}

// FragmentSetFromTokens greedy-decodes the next query and extracts its
// fragments: the generated statement is parsed when possible, otherwise
// the vocabulary role map classifies each token.
func (r *Recommender) FragmentSetFromTokens(src []int) *sqlast.FragmentSet {
	res := decode.Greedy(r.Model, src, r.MaxGenLen)
	return r.fragmentsOfIDs(res.IDs)
}

func (r *Recommender) fragmentsOfIDs(ids []int) *sqlast.FragmentSet {
	sql := tokenizer.Detokenize(r.Vocab.Decode(ids))
	// Hot path: one parse per decoded candidate. The fragment set only
	// keeps strings (immutable, independent of node storage), so the AST
	// can go back to the shared arena pool before returning.
	arena := sqlast.SharedArenas.Get()
	if stmt, err := sqlparse.ParseArena(sql, arena); err == nil {
		fs := sqlast.Fragments(stmt)
		sqlast.SharedArenas.Put(arena)
		return fs
	}
	sqlast.SharedArenas.Put(arena)
	fs := sqlast.NewFragmentSet()
	for _, id := range ids {
		for _, f := range TokenFragments(r.Vocab, id) {
			fs.Add(f.Kind, f.Name)
		}
	}
	return fs
}

// PopularTemplates returns up to n template classes in training-frequency
// order. The class list is already ranked by workload frequency (see
// analysis.TemplateClasses), so its prefix is exactly the paper's
// *popular* templates baseline — derivable from the trained artifacts
// alone, which lets a serving process pre-warm a degraded-mode answer
// without shipping the training workload.
func (r *Recommender) PopularTemplates(n int) []string {
	classes := r.Classifier.Classes
	if n > len(classes) {
		n = len(classes)
	}
	out := make([]string, n)
	copy(out, classes[:n])
	return out
}

// PopularFragments returns up to n fragments per kind in vocabulary
// order. Vocabulary ids are assigned by descending training-token
// frequency, so walking ids in order and expanding each token's fragment
// roles yields a frequency-ranked *popular* fragments approximation from
// the trained artifacts alone (dotted columns contribute to both their
// table and column kinds, deduplicated).
func (r *Recommender) PopularFragments(n int) map[sqlast.FragmentKind][]string {
	out := make(map[sqlast.FragmentKind][]string, len(sqlast.FragmentKinds))
	seen := map[sqlast.FragmentKind]map[string]bool{}
	for _, k := range sqlast.FragmentKinds {
		out[k] = []string{}
		seen[k] = map[string]bool{}
	}
	remaining := len(sqlast.FragmentKinds)
	for id := 0; id < r.Vocab.Size() && remaining > 0; id++ {
		for _, f := range TokenFragments(r.Vocab, id) {
			if len(out[f.Kind]) >= n || seen[f.Kind][f.Name] {
				continue
			}
			seen[f.Kind][f.Name] = true
			out[f.Kind] = append(out[f.Kind], f.Name)
			if len(out[f.Kind]) == n {
				remaining--
			}
		}
	}
	return out
}

// Strategy selects the N-fragments search strategy (Section 4.2.2).
type Strategy int

// Search strategies assessed by the paper.
const (
	StrategyBeam Strategy = iota
	StrategyDiverseBeam
	StrategySampling
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyBeam:
		return "beam"
	case StrategyDiverseBeam:
		return "diverse-beam"
	case StrategySampling:
		return "sampling"
	default:
		return "unknown"
	}
}

// NFragmentsOptions parameterizes N-fragments prediction.
type NFragmentsOptions struct {
	Strategy Strategy
	Width    int     // beam width / sample count
	Penalty  float64 // diverse-beam dissimilarity penalty
	MinFrac  float64 // sampling low-score cutoff fraction
	Seed     int64
}

// DefaultNFragmentsOptions mirrors the paper's defaults: width-5 search,
// default dissimilarity, low-score zeroing.
func DefaultNFragmentsOptions() NFragmentsOptions {
	return NFragmentsOptions{Strategy: StrategyBeam, Width: 5, Penalty: 0.5, MinFrac: 0.05, Seed: 11}
}

// NextFragments predicts the top-N fragments of each kind for the next
// query by aggregating fragment probabilities over the search tree
// (Section 4.2.2).
func (r *Recommender) NextFragments(sql string, n int, opts NFragmentsOptions) (map[sqlast.FragmentKind][]string, error) {
	src, err := r.encodeSQL(sql)
	if err != nil {
		return nil, err
	}
	return r.NFragmentsFromTokens(src, n, opts), nil
}

// NFragmentsFromTokens runs the configured search strategy and aggregates.
// It is a one-item NFragmentsFromTokensBatch.
func (r *Recommender) NFragmentsFromTokens(src []int, n int, opts NFragmentsOptions) map[sqlast.FragmentKind][]string {
	return r.NFragmentsFromTokensBatch([][]int{src}, []int{n}, []NFragmentsOptions{opts})[0]
}

// AggregateFragments implements the paper's search-tree probability
// aggregation: within one path (hypothesis), a fragment's probability is
// the token probability at its first occurrence; across paths,
// probabilities sum. The top-N fragments per kind are returned in
// descending probability order.
func AggregateFragments(v *tokenizer.Vocab, results []decode.Result, n int) map[sqlast.FragmentKind][]string {
	type key struct {
		kind sqlast.FragmentKind
		name string
	}
	scores := map[key]float64{}
	for _, res := range results {
		seen := map[key]bool{}
		for i, id := range res.IDs {
			p := math.Exp(res.StepLogP[i])
			for _, f := range TokenFragments(v, id) {
				k := key{f.Kind, f.Name}
				if seen[k] {
					continue
				}
				seen[k] = true
				scores[k] += p
			}
		}
	}
	out := map[sqlast.FragmentKind][]string{}
	for _, kind := range sqlast.FragmentKinds {
		type scored struct {
			name string
			p    float64
		}
		var list []scored
		for k, p := range scores {
			if k.kind == kind {
				list = append(list, scored{k.name, p})
			}
		}
		sort.Slice(list, func(i, j int) bool {
			//lint:ignore floateq exact tie-break keeps the sort a strict weak order; an epsilon would not
			if list[i].p != list[j].p {
				return list[i].p > list[j].p
			}
			return list[i].name < list[j].name
		})
		if len(list) > n {
			list = list[:n]
		}
		names := make([]string, len(list))
		for i, s := range list {
			names[i] = s.name
		}
		out[kind] = names
	}
	return out
}
