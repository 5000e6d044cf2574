package servepool

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/reccache"
	"repro/internal/sqlast"
	"repro/internal/testutil"
)

// testBatcher builds a batcher whose exec echoes each item's key into its
// template slot, for driving the coalescing machinery without a model.
func testBatcher(t *testing.T, max int, window time.Duration, after func(time.Duration) <-chan time.Time) (*batcher, *Pool) {
	t.Helper()
	pool := NewPoolQueue(1, max)
	if after == nil {
		after = time.After
	}
	exec := func(_ context.Context, items []*batchItem) {
		for _, it := range items {
			it.tmpl = []string{it.key}
			close(it.done)
		}
	}
	return newBatcher(max, window, time.Now, after, pool, exec), pool
}

func testItem(ctx context.Context, key string) *batchItem {
	return &batchItem{ctx: ctx, key: key, done: make(chan struct{})}
}

// TestBatcherSizeHitAndCancellation fills a batch to its size bound with
// one item cancelled mid-formation: the flush must drop exactly the
// cancelled item — its waiter sees its own context error — while the
// siblings execute together and unharmed.
func TestBatcherSizeHitAndCancellation(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	b, pool := testBatcher(t, 4, time.Hour, nil)
	defer pool.Close()
	defer b.close()

	ctx2, cancel2 := context.WithCancel(context.Background())
	items := []*batchItem{
		testItem(context.Background(), "a"),
		testItem(ctx2, "b"),
		testItem(context.Background(), "c"),
	}
	for _, it := range items {
		if err := b.enqueue(it); err != nil {
			t.Fatalf("enqueue(%s): %v", it.key, err)
		}
	}
	// Cancel b while the batch is still forming (the window is an hour and
	// only 3 of 4 slots are filled), then trip the size bound.
	cancel2()
	last := testItem(context.Background(), "d")
	if err := b.enqueue(last); err != nil {
		t.Fatalf("enqueue(d): %v", err)
	}

	for _, it := range []*batchItem{items[0], items[2], last} {
		<-it.done
		if it.err != nil {
			t.Fatalf("item %s: unexpected error %v", it.key, it.err)
		}
		if len(it.tmpl) != 1 || it.tmpl[0] != it.key {
			t.Fatalf("item %s: tmpl = %v", it.key, it.tmpl)
		}
	}
	<-items[1].done
	if !errors.Is(items[1].err, context.Canceled) {
		t.Fatalf("cancelled item error = %v, want context.Canceled", items[1].err)
	}

	st := b.stats()
	if st.Batches != 1 || st.Items != 3 || st.SizeHits != 1 || st.WindowHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CancelledItems != 1 {
		t.Fatalf("cancelled = %d, want 1", st.CancelledItems)
	}
	if st.SizeHist[2] != 1 { // executed with 3 live items
		t.Fatalf("size hist = %v, want bucket 3 hit once", st.SizeHist)
	}
	if st.QueueWaitNsTotal == 0 {
		t.Fatalf("queue wait not recorded")
	}
}

// TestBatcherWindowHit drives the window deadline with an injected timer:
// a partial batch must flush when the window channel fires, counted as a
// window hit of the gathered size.
func TestBatcherWindowHit(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	afterCh := make(chan time.Time)
	armed := make(chan struct{}, 1)
	after := func(time.Duration) <-chan time.Time {
		armed <- struct{}{}
		return afterCh
	}
	b, pool := testBatcher(t, 4, time.Hour, after)
	defer pool.Close()
	defer b.close()

	it1 := testItem(context.Background(), "x")
	if err := b.enqueue(it1); err != nil {
		t.Fatal(err)
	}
	<-armed // first item consumed; window timer armed
	it2 := testItem(context.Background(), "y")
	if err := b.enqueue(it2); err != nil {
		t.Fatal(err)
	}
	for len(b.in) > 0 { // collector consumed it2 into the forming batch
		runtime.Gosched()
	}
	afterCh <- time.Time{}

	for _, it := range []*batchItem{it1, it2} {
		<-it.done
		if it.err != nil || len(it.tmpl) != 1 || it.tmpl[0] != it.key {
			t.Fatalf("item %s: tmpl=%v err=%v", it.key, it.tmpl, it.err)
		}
	}
	st := b.stats()
	if st.Batches != 1 || st.WindowHits != 1 || st.SizeHits != 0 || st.Items != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SizeHist[1] != 1 {
		t.Fatalf("size hist = %v, want bucket 2 hit once", st.SizeHist)
	}
}

// TestBatcherCloseFlushesAndRefuses pins shutdown: close flushes the
// forming batch (waiters complete) and later enqueues fail ErrClosed.
func TestBatcherCloseFlushesAndRefuses(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	b, pool := testBatcher(t, 8, time.Hour, nil)
	defer pool.Close()

	it := testItem(context.Background(), "z")
	if err := b.enqueue(it); err != nil {
		t.Fatal(err)
	}
	b.close()
	b.close() // idempotent
	<-it.done
	if it.err != nil || len(it.tmpl) != 1 {
		t.Fatalf("flushed item: tmpl=%v err=%v", it.tmpl, it.err)
	}
	if err := b.enqueue(testItem(context.Background(), "late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close = %v, want ErrClosed", err)
	}
}

// batchedEngineQueries are structurally distinct (literal values alone
// would normalize to one cache key).
var batchedEngineQueries = []string{
	"SELECT ra FROM PhotoObj",
	"SELECT dec FROM PhotoObj",
	"SELECT ra, dec FROM PhotoObj",
	"SELECT ra FROM PhotoObj WHERE ra > 1.0",
	"SELECT TOP 10 ra FROM PhotoObj",
	"SELECT ra, dec FROM PhotoObj WHERE dec < 1.0",
}

// TestRecommendBatchedByteIdentical is the serving half of the
// bit-identity contract: the same requests through a micro-batching
// engine (concurrent, so they genuinely coalesce) and a plain engine must
// produce deeply equal results — batching must be invisible in response
// bytes. Runs under -race in tier-1, which also chases collector and
// flush ordering races.
func TestRecommendBatchedByteIdentical(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	rec := engineRecommender(t)
	plain := NewEngine(rec, nil, 2)
	defer plain.Close()
	want := make([]*Result, len(batchedEngineQueries))
	for i, sql := range batchedEngineQueries {
		r, err := plain.Recommend(context.Background(), testRequest(sql))
		if err != nil {
			t.Fatalf("plain %q: %v", sql, err)
		}
		want[i] = r
	}

	// No cache: every request must travel the batched model path.
	eng := NewEngineWithOptions(rec, nil, EngineOptions{
		Workers:     2,
		BatchSize:   4,
		BatchWindow: 2 * time.Millisecond,
	})
	defer eng.Close()
	if !eng.BatcherStats().Enabled {
		t.Fatal("batching not enabled")
	}

	for round := 0; round < 2; round++ {
		got := make([]*Result, len(batchedEngineQueries))
		errs := make([]error, len(batchedEngineQueries))
		var wg sync.WaitGroup
		for i, sql := range batchedEngineQueries {
			wg.Add(1)
			go func(i int, sql string) {
				defer wg.Done()
				got[i], errs[i] = eng.Recommend(context.Background(), testRequest(sql))
			}(i, sql)
		}
		wg.Wait()
		for i := range batchedEngineQueries {
			if errs[i] != nil {
				t.Fatalf("round %d batched %q: %v", round, batchedEngineQueries[i], errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d %q: batched result diverges:\n got %+v\nwant %+v",
					round, batchedEngineQueries[i], got[i], want[i])
			}
		}
	}

	st := eng.BatcherStats()
	wantItems := uint64(2 * len(batchedEngineQueries))
	if st.Templates.Items != wantItems || st.Fragments.Items != wantItems {
		t.Fatalf("items = %d/%d, want %d", st.Templates.Items, st.Fragments.Items, wantItems)
	}
	if st.Templates.Batches == 0 || st.Templates.SizeHits+st.Templates.WindowHits != st.Templates.Batches {
		t.Fatalf("template batches inconsistent: %+v", st.Templates)
	}
	var hist uint64
	for i, c := range st.Templates.SizeHist {
		hist += uint64(i+1) * c
	}
	if hist != wantItems {
		t.Fatalf("size hist %v sums to %d items, want %d", st.Templates.SizeHist, hist, wantItems)
	}
}

// TestRecommendBatchThroughMicroBatch routes the explicit batch endpoint
// through the coalescing path and checks it against per-item plain
// results: one code path serves both explicit and coalesced batches.
func TestRecommendBatchThroughMicroBatch(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	rec := engineRecommender(t)
	plain := NewEngine(rec, nil, 2)
	defer plain.Close()
	eng := NewEngineWithOptions(rec, reccache.New(64), EngineOptions{
		Workers:     2,
		BatchSize:   4,
		BatchWindow: 2 * time.Millisecond,
	})
	defer eng.Close()

	reqs := make([]Request, len(batchedEngineQueries))
	for i, sql := range batchedEngineQueries {
		reqs[i] = testRequest(sql)
	}
	items := eng.RecommendBatch(context.Background(), reqs)
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d (%q): %v", i, reqs[i].SQL, it.Err)
		}
		want, err := plain.Recommend(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(it.Result, want) {
			t.Fatalf("item %d (%q) diverges:\n got %+v\nwant %+v", i, reqs[i].SQL, it.Result, want)
		}
	}
	if st := eng.BatcherStats(); st.Templates.Items == 0 {
		t.Fatalf("explicit batch did not travel the micro-batch path: %+v", st)
	}
}

// TestBatchedEngineClosed pins shutdown semantics with batching on.
func TestBatchedEngineClosed(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	rec := engineRecommender(t)
	eng := NewEngineWithOptions(rec, nil, EngineOptions{Workers: 1, BatchSize: 2})
	eng.Close()
	_, err := eng.Recommend(context.Background(), testRequest("SELECT ra FROM PhotoObj"))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Recommend after Close = %v, want ErrClosed", err)
	}
}

// TestDefaultEngineDoesNotCoalesce pins the zero-value contract: without
// BatchSize every request half is a one-item batch — no coalescing wait —
// the engine reports coalescing off, and its answers are those of the
// direct core API calls (TestRecommendMatchesSequentialPath).
func TestDefaultEngineDoesNotCoalesce(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	rec := engineRecommender(t)
	eng := NewEngine(rec, nil, 2)
	defer eng.Close()

	sql := "SELECT ra, dec FROM PhotoObj WHERE ra > 180.0"
	wantTmpl, err := rec.NextTemplates(sql, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantFrag, err := rec.NextFragments(sql, 3, core.DefaultNFragmentsOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := eng.Recommend(context.Background(), testRequest(sql))
			if err == nil && (!reflect.DeepEqual(got.Templates, wantTmpl) || !reflect.DeepEqual(got.Fragments, wantFrag)) {
				err = fmt.Errorf("got %+v, want templates %v fragments %v", got, wantTmpl, wantFrag)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := eng.BatcherStats()
	if st.Enabled || st.MaxSize != 0 || st.WindowNs != 0 {
		t.Fatalf("coalescing reported on for zero-value options: %+v", st)
	}
	for _, h := range []BatcherHalfStats{st.Templates, st.Fragments} {
		if h.Batches != uint64(len(errs)) || h.Items != h.Batches || h.SizeHits != h.Batches || !reflect.DeepEqual(h.SizeHist, []uint64{h.Batches}) {
			t.Fatalf("half stats = %+v, want %d one-item batches", h, len(errs))
		}
	}
}

// ctxProbeKey tags a request context so a predictor can prove it
// received the caller's context and not a detached one.
type ctxProbeKey struct{}

// ctxProbePredictor is a plain Predictor that records whether each call
// saw the probe value in its context.
type ctxProbePredictor struct {
	fakePredictor
	missing atomic.Int64
}

func (p *ctxProbePredictor) Templates(ctx context.Context, prevToks, curToks []string, n int) ([]string, error) {
	if ctx.Value(ctxProbeKey{}) == nil {
		p.missing.Add(1)
	}
	return p.fakePredictor.Templates(ctx, prevToks, curToks, n)
}

func (p *ctxProbePredictor) Fragments(ctx context.Context, curToks []string, n int, opts core.NFragmentsOptions) (map[sqlast.FragmentKind][]string, error) {
	if ctx.Value(ctxProbeKey{}) == nil {
		p.missing.Add(1)
	}
	return p.fakePredictor.Fragments(ctx, curToks, n, opts)
}

// TestPlainPredictorNeverCoalesces: a predictor without the batch methods
// runs one item per batch even when BatchSize asks for more, and every
// call carries the request's own context.
func TestPlainPredictorNeverCoalesces(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	pred := &ctxProbePredictor{}
	eng := NewEngineWithOptions(nil, nil, EngineOptions{
		Workers:     2,
		Predictor:   pred,
		BatchSize:   4,
		BatchWindow: time.Hour, // a coalescing engine would stall here
	})
	defer eng.Close()
	ctx := context.WithValue(context.Background(), ctxProbeKey{}, true)
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := eng.Recommend(ctx, testRequest(fmt.Sprintf("SELECT c%d FROM t", i))); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if got := pred.calls.Load(); got != 2*n {
		t.Fatalf("predictor calls = %d, want %d", got, 2*n)
	}
	if m := pred.missing.Load(); m != 0 {
		t.Fatalf("%d predictor calls lost the request context", m)
	}
	st := eng.BatcherStats()
	if st.Enabled {
		t.Fatalf("coalescing reported on for a plain predictor: %+v", st)
	}
	for _, h := range []BatcherHalfStats{st.Templates, st.Fragments} {
		if h.Batches != n || !reflect.DeepEqual(h.SizeHist, []uint64{n}) {
			t.Fatalf("half stats = %+v, want %d one-item batches", h, n)
		}
	}
}

// countingPredictor counts calls per query.
type countingPredictor struct {
	mu    sync.Mutex
	calls map[string]int
}

func (p *countingPredictor) count(curToks []string) {
	p.mu.Lock()
	p.calls[strings.Join(curToks, " ")]++
	p.mu.Unlock()
}

func (p *countingPredictor) Templates(_ context.Context, _, curToks []string, n int) ([]string, error) {
	p.count(curToks)
	return fakeAnswerTemplates(n), nil
}

func (p *countingPredictor) Fragments(_ context.Context, curToks []string, n int, _ core.NFragmentsOptions) (map[sqlast.FragmentKind][]string, error) {
	p.count(curToks)
	return fakeAnswerFragments(n), nil
}

// TestOneItemBatchContextRule pins how a one-item batch treats its
// request's context: with the only worker held busy, a request whose
// soft budget expires while both its halves wait in the queue ends in
// its ladder outcome and never reaches the predictor — the pool skips
// the tasks its caller gave up on.
func TestOneItemBatchContextRule(t *testing.T) {
	for _, withFallback := range []bool{true, false} {
		t.Run(fmt.Sprintf("fallback=%v", withFallback), func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			pred := &countingPredictor{calls: map[string]int{}}
			opts := EngineOptions{Workers: 1, Queue: 4, Predictor: pred, SoftTimeout: 20 * time.Millisecond}
			if withFallback {
				opts.Fallback = testFallback()
			}
			eng := NewEngineWithOptions(nil, nil, opts)
			started, gate := make(chan struct{}), make(chan struct{})
			held := make(chan error, 1)
			go func() {
				held <- eng.pool.Do(context.Background(), func() {
					close(started)
					<-gate
				})
			}()
			<-started

			res, err := eng.Recommend(context.Background(), testRequest("SELECT b FROM good"))
			close(gate)
			if herr := <-held; herr != nil {
				t.Fatalf("holding task: %v", herr)
			}
			eng.Close() // the worker skips (or the batcher dropped) both halves
			if withFallback {
				if err != nil || res == nil || !res.Degraded {
					t.Fatalf("res=%+v err=%v, want a degraded answer", res, err)
				}
			} else if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			if n := pred.calls["SELECT b FROM good"]; n != 0 {
				t.Fatalf("the request reached the predictor %d times after its budget expired", n)
			}
			if st := eng.OverloadStats(); st.SoftTimeouts != 1 {
				t.Fatalf("soft timeouts = %d, want 1", st.SoftTimeouts)
			}
			ps, bs := eng.PoolStats(), eng.BatcherStats()
			if dropped := bs.Templates.CancelledItems + bs.Fragments.CancelledItems; ps.Executed != 1 || ps.Skipped+dropped != 2 {
				t.Fatalf("pool stats = %+v, dropped %d: want only the holding task executed", ps, dropped)
			}
		})
	}
}

// TestBatcherOneItemCancelledWhileRunning: Pool.Do returns the item's
// context error when that context ends while the task runs. The batch
// must then be completed by the task alone — failing it from the launch
// side too would close the item's done channel twice.
func TestBatcherOneItemCancelledWhileRunning(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	pool := NewPoolQueue(1, 1)
	defer pool.Close()
	entered, gate := make(chan struct{}), make(chan struct{})
	exec := func(_ context.Context, items []*batchItem) {
		close(entered)
		<-gate
		for _, it := range items {
			it.tmpl = []string{it.key}
			close(it.done)
		}
	}
	b := newBatcher(1, 0, time.Now, time.After, pool, exec)
	defer b.close()

	ctx, cancel := context.WithCancel(context.Background())
	it := testItem(ctx, "k")
	if err := b.enqueue(it); err != nil {
		t.Fatal(err)
	}
	<-entered
	cancel()
	// Give Pool.Do time to observe the cancellation before the task ends.
	time.Sleep(5 * time.Millisecond)
	close(gate)
	<-it.done
	if it.err != nil || len(it.tmpl) != 1 {
		t.Fatalf("item: tmpl=%v err=%v, want the task's result", it.tmpl, it.err)
	}
}
