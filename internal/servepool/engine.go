package servepool

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/reccache"
	"repro/internal/sqlast"
	"repro/internal/tokenizer"
)

// Request is one recommendation to compute.
type Request struct {
	// SQL is the user's current query Q_i (required).
	SQL string
	// PrevSQL optionally supplies Q_{i-1} for context-trained models.
	PrevSQL string
	// N bounds templates and fragments per kind.
	N int
	// Opts parameterizes the N-fragments search.
	Opts core.NFragmentsOptions
}

// Result is one computed recommendation.
type Result struct {
	Templates []string
	Fragments map[sqlast.FragmentKind][]string
	// Degraded marks an answer served from the pre-warmed Popular
	// fallback instead of the model path (shed, breaker open, or soft
	// deadline exceeded).
	Degraded bool
}

// BadQueryError wraps a tokenization/parse failure of the input SQL so the
// HTTP layer can map it to 422 instead of 500.
type BadQueryError struct{ Err error }

// Error implements the error interface.
func (e *BadQueryError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying parse error.
func (e *BadQueryError) Unwrap() error { return e.Err }

// PredictorPanicError wraps a panic recovered from a predictor call, so a
// crashing model path becomes an ordinary error (degradable, breaker
// countable) instead of killing a pool worker and the process with it.
type PredictorPanicError struct{ Value any }

// Error implements the error interface.
func (e *PredictorPanicError) Error() string {
	return fmt.Sprintf("servepool: predictor panic: %v", e.Value)
}

// Predictor is the model-path dependency of the Engine: the two
// independent halves of a recommendation. core.Recommender satisfies it
// through the default adapter; chaos tests (and custom backends)
// substitute slow, failing or panicking implementations. Implementations
// must be safe for concurrent use; ctx carries the per-request soft
// budget, which implementations may honor or ignore (the built-in model
// path ignores it — beam search is not interruptible — and relies on the
// pool's context handling for abandonment).
type Predictor interface {
	Templates(ctx context.Context, prevToks, curToks []string, n int) ([]string, error)
	Fragments(ctx context.Context, curToks []string, n int, opts core.NFragmentsOptions) (map[sqlast.FragmentKind][]string, error)
}

// recPredictor is the default Predictor: the trained model path.
type recPredictor struct{ rec *core.Recommender }

func (p recPredictor) Templates(_ context.Context, prevToks, curToks []string, n int) ([]string, error) {
	src := core.EncodeContext(p.rec.Vocab, prevToks, curToks)
	return p.rec.Classifier.PredictTopN(src, n), nil
}

func (p recPredictor) Fragments(_ context.Context, curToks []string, n int, opts core.NFragmentsOptions) (map[sqlast.FragmentKind][]string, error) {
	src := p.rec.Vocab.Encode(curToks, true)
	return p.rec.NFragmentsFromTokens(src, n, opts), nil
}

// EngineOptions tunes the serving engine beyond the basic pool size. The
// zero value reproduces the plain engine: default queue, model-path
// predictor, no admission control, no breaker, no degraded mode.
type EngineOptions struct {
	// Workers sizes the prediction pool (<= 0 defaults to GOMAXPROCS).
	Workers int
	// Queue sizes the pool task queue (<= 0 defaults to Workers).
	Queue int
	// Predictor overrides the model path; nil uses the recommender.
	Predictor Predictor
	// Admission, when non-nil, sheds requests before they queue; the
	// engine binds it to the pool's live queue depth.
	Admission *overload.Admission
	// Breaker, when non-nil, guards the model path: soft timeouts and
	// model failures count toward its trip ratio, and an open circuit
	// sheds straight to the fallback.
	Breaker *overload.Breaker
	// Fallback, when non-nil, enables degraded mode: shed requests and
	// over-budget model calls answer from this snapshot (flagged
	// Result.Degraded) instead of erroring.
	Fallback *Fallback
	// SoftTimeout bounds each request's model work below the caller's
	// hard deadline, leaving room to degrade instead of timing out; 0
	// disables. Batch items inherit it individually (per-item budgets).
	SoftTimeout time.Duration
	// BatchSize caps the items of one model pass. Every request half
	// runs as a batch item; when BatchSize >= 2 and the predictor
	// implements BatchPredictor, concurrent requests coalesce into
	// batches of up to this many items. Otherwise (0 or 1, or a plain
	// Predictor) each item flushes alone on arrival: no coalescing wait.
	BatchSize int
	// BatchWindow bounds how long the first request of a forming batch
	// waits for company before the batch flushes anyway; <= 0 defaults
	// to 500µs. Ignored unless coalescing is on.
	BatchWindow time.Duration
	// Now and After inject the batcher's clock and timer for tests; nil
	// uses time.Now and time.After.
	Now   func() time.Time
	After func(time.Duration) <-chan time.Time
}

// defaultBatchWindow bounds batch formation when the caller enables
// batching without choosing a window: long enough to coalesce genuinely
// concurrent arrivals, short enough to be noise against a model pass.
const defaultBatchWindow = 500 * time.Microsecond

// Engine executes recommendations for one trained model: the template and
// fragment predictions of a request are two independent batch items, one
// per half's batcher, executed on the worker pool (they share no state —
// see core.Recommender), and results are memoized in an optional
// inference cache keyed on the normalized token sequence, context, N and
// search options.
//
// With EngineOptions the engine also climbs the overload ladder: an
// admission controller sheds requests the pool cannot finish in budget, a
// circuit breaker sheds around a failing model path, and shed requests
// are answered from an exact cache hit when one is resident — full
// quality at zero model cost — or from the degraded Popular fallback.
type Engine struct {
	rec   *core.Recommender
	cache *reccache.Cache // nil disables caching
	pool  *Pool
	pred  BatchPredictor
	adm   *overload.Admission
	brk   *overload.Breaker
	fb    *Fallback
	soft  time.Duration

	// One batcher per prediction half, sharing the worker pool for
	// execution. batchSize is 1 and batchWindow 0 unless coalescing is on.
	batT        *batcher
	batF        *batcher
	batchSize   int
	batchWindow time.Duration

	degraded      atomic.Uint64
	softTimeouts  atomic.Uint64
	modelFailures atomic.Uint64
	shedCacheHits atomic.Uint64
}

// NewEngine builds an engine around a trained recommender. cache may be
// nil (no memoization); workers <= 0 defaults to GOMAXPROCS.
func NewEngine(rec *core.Recommender, cache *reccache.Cache, workers int) *Engine {
	return NewEngineWithOptions(rec, cache, EngineOptions{Workers: workers})
}

// NewEngineWithOptions builds an engine with explicit serving options.
func NewEngineWithOptions(rec *core.Recommender, cache *reccache.Cache, opts EngineOptions) *Engine {
	pool := NewPoolQueue(opts.Workers, opts.Queue)
	pred := opts.Predictor
	if pred == nil {
		pred = recPredictor{rec: rec}
	}
	if opts.Admission != nil {
		opts.Admission.Bind(pool.QueueDepth, pool.QueueCap())
	}
	bp, batched := pred.(BatchPredictor)
	if !batched {
		bp = onePredictor{pred}
	}
	e := &Engine{
		rec:       rec,
		cache:     cache,
		pool:      pool,
		pred:      bp,
		adm:       opts.Admission,
		brk:       opts.Breaker,
		fb:        opts.Fallback,
		soft:      opts.SoftTimeout,
		batchSize: 1,
	}
	if batched && opts.BatchSize >= 2 {
		e.batchSize = opts.BatchSize
		e.batchWindow = opts.BatchWindow
		if e.batchWindow <= 0 {
			e.batchWindow = defaultBatchWindow
		}
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	after := opts.After
	if after == nil {
		after = time.After
	}
	e.batT = newBatcher(e.batchSize, e.batchWindow, now, after, pool, e.execTemplates)
	e.batF = newBatcher(e.batchSize, e.batchWindow, now, after, pool, e.execFragments)
	return e
}

// execTemplates is the template batcher's execution step: one batched
// predictor call, then per-item cache fill and completion. A batch-wide
// error (or recovered panic) fails every item — each waiter's Recommend
// ladder then triages it exactly as a sequential failure.
func (e *Engine) execTemplates(ctx context.Context, items []*batchItem) {
	qs := make([]TemplateQuery, len(items))
	for i, it := range items {
		qs[i] = TemplateQuery{PrevToks: it.prevToks, CurToks: it.curToks, N: it.n}
	}
	outs, err := safePredict(func() ([][]string, error) {
		return e.pred.TemplatesBatch(ctx, qs)
	})
	for i, it := range items {
		if err != nil {
			it.err = err
		} else {
			it.tmpl = outs[i]
			e.cache.Put(it.key, outs[i])
		}
		close(it.done)
	}
}

// execFragments is execTemplates' fragment-half twin.
func (e *Engine) execFragments(ctx context.Context, items []*batchItem) {
	qs := make([]FragmentQuery, len(items))
	for i, it := range items {
		qs[i] = FragmentQuery{CurToks: it.curToks, N: it.n, Opts: it.opts}
	}
	outs, err := safePredict(func() ([]map[sqlast.FragmentKind][]string, error) {
		return e.pred.FragmentsBatch(ctx, qs)
	})
	for i, it := range items {
		if err != nil {
			it.err = err
		} else {
			it.frags = outs[i]
			e.cache.Put(it.key, outs[i])
		}
		close(it.done)
	}
}

// Rec exposes the underlying recommender (read-only use).
func (e *Engine) Rec() *core.Recommender { return e.rec }

// CacheStats snapshots the inference cache counters (zero when disabled).
func (e *Engine) CacheStats() reccache.Stats { return e.cache.Stats() }

// PoolStats snapshots the worker pool counters.
func (e *Engine) PoolStats() PoolStats { return e.pool.Stats() }

// BatcherStats snapshots the micro-batcher counters. Enabled, MaxSize and
// WindowNs are set only when coalescing is on; the counters always run.
func (e *Engine) BatcherStats() BatcherStats {
	st := BatcherStats{Templates: e.batT.stats(), Fragments: e.batF.stats()}
	if e.batchSize >= 2 {
		st.Enabled, st.MaxSize, st.WindowNs = true, e.batchSize, e.batchWindow
	}
	return st
}

// Close drains and stops the worker pool. Batchers close first so their
// final flush can still reach the pool.
func (e *Engine) Close() {
	e.batT.close()
	e.batF.close()
	e.pool.Close()
}

// optsKey serializes every field that changes search output, so distinct
// option sets never collide in the cache.
func optsKey(o core.NFragmentsOptions) string {
	return fmt.Sprintf("%s|%d|%g|%g|%d", o.Strategy, o.Width, o.Penalty, o.MinFrac, o.Seed)
}

// prepared is a validated request: tokenized input plus cache keys.
type prepared struct {
	curToks, prevToks []string
	tmplKey, fragKey  string
}

// prepare tokenizes the request up front: the token sequence is both the
// cache key (normalized — whitespace, aliases and literals are already
// folded) and the model input, and it is the only part of the pipeline
// that can reject the request. Running it before admission means junk
// input gets its 422 even under overload.
func prepare(req Request) (prepared, error) {
	curToks, err := tokenizer.Tokenize(req.SQL)
	if err != nil {
		return prepared{}, &BadQueryError{Err: err}
	}
	var prevToks []string
	if req.PrevSQL != "" {
		prevToks, err = tokenizer.Tokenize(req.PrevSQL)
		if err != nil {
			return prepared{}, &BadQueryError{Err: err}
		}
	}
	curKey := strings.Join(curToks, " ")
	prevKey := strings.Join(prevToks, " ")
	n := strconv.Itoa(req.N)
	return prepared{
		curToks:  curToks,
		prevToks: prevToks,
		tmplKey:  "t\x00" + prevKey + "\x00" + curKey + "\x00" + n,
		fragKey:  "f\x00" + curKey + "\x00" + n + "\x00" + optsKey(req.Opts),
	}, nil
}

// Recommend computes templates and fragments for one request, running the
// two predictions in parallel on the pool.
//
// Overload ladder (active parts only): admission may shed the request
// before it queues; an open breaker sheds it around the model path; a
// configured soft timeout bounds the model work. A shed request is
// answered from an exact cache hit when both halves are resident,
// otherwise from the degraded fallback; without a fallback it fails with
// an error unwrapping to overload.ErrOverloaded.
//
// Errors: *BadQueryError when the SQL (or PrevSQL) does not parse or the
// encoder input is longer than the model's positional table, overload
// rejections (errors.Is(err, overload.ErrOverloaded)) when shed without a
// fallback, ctx.Err() on caller timeout/cancellation, ErrClosed after
// Close, and predictor failures (including *PredictorPanicError) when
// degraded mode is off.
func (e *Engine) Recommend(ctx context.Context, req Request) (*Result, error) {
	pr, err := prepare(req)
	if err != nil {
		return nil, err
	}
	// An over-long input would panic inside the model; as a model failure
	// it would feed the breaker and degrade every client's answers, so it
	// is the caller's bad query instead, rejected before admission.
	if e.rec != nil {
		if n, limit := len(core.EncodeContext(e.rec.Vocab, pr.prevToks, pr.curToks)), e.rec.Model.Config().MaxLen; n > limit {
			return nil, &BadQueryError{Err: fmt.Errorf("query encodes to %d tokens; the model accepts at most %d", n, limit)}
		}
	}

	if e.adm != nil {
		release, aerr := e.adm.Acquire()
		if aerr != nil {
			return e.shedAnswer(pr, req.N, aerr)
		}
		defer release()
	}
	tkt, berr := e.brk.Allow()
	if berr != nil {
		return e.shedAnswer(pr, req.N, berr)
	}
	// The ticket must be settled on every path below — Record with an
	// outcome, or Cancel on abandonment. Leaking a half-open probe ticket
	// would wedge the breaker in HalfOpen (the probe slot is the only
	// exit), so the two are folded into one sync.Once.
	var brkOnce sync.Once
	recordBreaker := func(failed bool) { brkOnce.Do(func() { e.brk.Record(tkt, failed) }) }
	cancelBreaker := func() { brkOnce.Do(func() { e.brk.Cancel(tkt) }) }

	mctx := ctx
	if e.soft > 0 {
		var cancel context.CancelFunc
		mctx, cancel = context.WithTimeout(ctx, e.soft)
		defer cancel()
	}
	res, err := e.modelPath(mctx, pr, req)
	if err == nil {
		recordBreaker(false)
		return res, nil
	}
	if errors.Is(err, ErrClosed) {
		// Shutting down: not a model failure, and nothing to degrade to
		// that the caller could still use. Release the breaker ticket
		// without sampling — this outcome proves nothing about the model.
		cancelBreaker()
		return nil, err
	}
	if ctx.Err() != nil {
		// The caller's own deadline or cancellation fired: the model is
		// not at fault and the caller is gone — propagate, and release
		// the ticket unsampled so an abandoned probe frees its slot.
		cancelBreaker()
		return nil, err
	}
	// The soft budget expired or the model path itself failed.
	if errors.Is(err, context.DeadlineExceeded) {
		e.softTimeouts.Add(1)
	} else {
		e.modelFailures.Add(1)
	}
	recordBreaker(true)
	if e.fb != nil {
		e.degraded.Add(1)
		return e.fb.Answer(req.N), nil
	}
	return nil, err
}

// shedAnswer terminates a shed request without model work: an exact
// cache hit (both halves resident) yields the full-quality answer — the
// probe leaves hit/miss telemetry and recency untouched — otherwise the
// degraded snapshot; with neither, the typed rejection propagates.
func (e *Engine) shedAnswer(pr prepared, n int, rej error) (*Result, error) {
	if t, ok := e.cache.Probe(pr.tmplKey); ok {
		if f, ok := e.cache.Probe(pr.fragKey); ok {
			e.shedCacheHits.Add(1)
			return &Result{
				Templates: t.([]string),
				Fragments: f.(map[sqlast.FragmentKind][]string),
			}, nil
		}
	}
	if e.fb != nil {
		e.degraded.Add(1)
		return e.fb.Answer(n), nil
	}
	return nil, rej
}

// modelPath runs the two prediction halves in parallel: each half probes
// the cache, then a miss joins the matching batcher's forming batch. Both
// halves enqueue before either is waited on, so one request's two halves
// can ride the same pair of batches. Waiting mirrors Pool.Do's contract —
// ctx expiry returns ctx.Err() while the batch may still run (and still
// fills the cache), which is what the Recommend ladder's soft-budget
// degrade and abandonment triage expect; a model failure is reported
// only once both halves have finished.
func (e *Engine) modelPath(ctx context.Context, pr prepared, req Request) (*Result, error) {
	res := &Result{}
	var itT, itF *batchItem
	if v, ok := e.cache.Get(pr.tmplKey); ok {
		res.Templates = v.([]string)
	} else {
		itT = &batchItem{
			ctx:      ctx,
			key:      pr.tmplKey,
			prevToks: pr.prevToks,
			curToks:  pr.curToks,
			n:        req.N,
			done:     make(chan struct{}),
		}
		if err := e.batT.enqueue(itT); err != nil {
			return nil, err
		}
	}
	if v, ok := e.cache.Get(pr.fragKey); ok {
		res.Fragments = v.(map[sqlast.FragmentKind][]string)
	} else {
		itF = &batchItem{
			ctx:     ctx,
			key:     pr.fragKey,
			curToks: pr.curToks,
			n:       req.N,
			opts:    req.Opts,
			done:    make(chan struct{}),
		}
		if err := e.batF.enqueue(itF); err != nil {
			// The template item (if any) stays in its batch and completes
			// without us; its result still lands in the cache.
			return nil, err
		}
	}
	// Both halves settle before either error is reported, so a failed
	// request leaves no model work of its own behind.
	for _, it := range []*batchItem{itT, itF} {
		if it == nil {
			continue
		}
		select {
		case <-it.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if itT != nil {
		if itT.err != nil {
			return nil, itT.err
		}
		res.Templates = itT.tmpl
	}
	if itF != nil {
		if itF.err != nil {
			return nil, itF.err
		}
		res.Fragments = itF.frags
	}
	return res, nil
}

// safePredict converts a predictor panic into an error so a crashing
// model path cannot take down the worker's process.
func safePredict[T any](f func() (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PredictorPanicError{Value: p}
		}
	}()
	return f()
}

// OverloadStats is a snapshot of the engine's overload-ladder counters.
type OverloadStats struct {
	// Degraded counts answers served from the fallback snapshot.
	Degraded uint64 `json:"degraded"`
	// SoftTimeouts counts model calls that exceeded the soft budget.
	SoftTimeouts uint64 `json:"soft_timeouts"`
	// ModelFailures counts predictor errors and recovered panics.
	ModelFailures uint64 `json:"model_failures"`
	// ShedCacheHits counts shed requests salvaged by an exact cache hit.
	ShedCacheHits uint64 `json:"shed_cache_hits"`
	// Admission and Breaker carry the component counters (zero-valued
	// when the component is disabled).
	Admission overload.AdmissionStats `json:"admission"`
	Breaker   overload.BreakerStats   `json:"breaker"`
}

// OverloadStats snapshots the overload counters.
func (e *Engine) OverloadStats() OverloadStats {
	return OverloadStats{
		Degraded:      e.degraded.Load(),
		SoftTimeouts:  e.softTimeouts.Load(),
		ModelFailures: e.modelFailures.Load(),
		ShedCacheHits: e.shedCacheHits.Load(),
		Admission:     e.adm.Stats(),
		Breaker:       e.brk.Stats(),
	}
}

// BreakerState reports the circuit state (Closed when no breaker is
// configured).
func (e *Engine) BreakerState() overload.BreakerState { return e.brk.State() }

// BatchItem is one outcome of RecommendBatch: exactly one of Result or Err
// is set.
type BatchItem struct {
	Result *Result
	Err    error
}

// RecommendBatch fans the requests across the worker pool and returns one
// item per request, in order. Per-request failures (unparseable SQL,
// shed without fallback, per-item soft timeout) land in the
// corresponding item and never poison their batch siblings; a cancelled
// context fails the remainder. Each item passes the overload ladder
// independently and gets its own soft budget, so one slow item degrades
// (or errors) alone. The items go through the same batchers as
// independent Recommend callers — explicit batches and coalesced traffic
// share one model path, and an item whose context dies while its batch
// is forming is dropped at flush without touching its siblings.
//
// Without coalescing each item's two halves are two one-item batches,
// two pool tasks, so a batch started all at once would fill the queue
// that admission reads and shed its own later items. The batch therefore
// keeps at most batchWidth items in flight; the rest wait for a sibling
// to finish, their soft budget not yet running.
func (e *Engine) RecommendBatch(ctx context.Context, reqs []Request) []BatchItem {
	out := make([]BatchItem, len(reqs))
	done := make(chan int, len(reqs))
	slots := make(chan struct{}, e.batchWidth(len(reqs)))
	for i := range reqs {
		// One lightweight coordinator per request; the heavy inference
		// inside Recommend is what the pool bounds. Coordinators never
		// run on pool workers, so a full pool cannot deadlock itself.
		go func(i int) {
			defer func() { done <- i }()
			select {
			case slots <- struct{}{}:
				defer func() { <-slots }()
			case <-ctx.Done():
				// The caller is gone: stop waiting, and let Recommend
				// report the cancellation as it does for any item.
			}
			r, err := e.Recommend(ctx, reqs[i])
			out[i] = BatchItem{Result: r, Err: err}
		}(i)
	}
	for range reqs {
		<-done
	}
	return out
}

// batchWidth bounds how many of an n-item RecommendBatch run at once.
// Without coalescing, it is half the smaller of the pool's workers and
// queue, rounded up: when an item passes admission its in-flight siblings
// hold at most 2(width-1) < min(workers, queue) pool tasks, so even if
// none of them has reached a worker yet they cannot fill the queue.
// Coalesced items share flushed pool tasks and coalesce better together,
// so they are not bounded.
func (e *Engine) batchWidth(n int) int {
	if e.batchSize >= 2 {
		return max(n, 1)
	}
	return (min(e.pool.Workers(), e.pool.QueueCap()) + 1) / 2
}
