package servepool

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/reccache"
	"repro/internal/sqlast"
)

// fakePredictor is a canned model path, selectable per request by table
// name in the SQL ("slow" blocks until ctx cancels, "boom" errors,
// "panic" panics; anything else answers instantly). It needs no trained
// model, so overload tests run in -short mode too.
type fakePredictor struct {
	calls atomic.Int64
}

var errFakeModel = errors.New("fake model failure")

func fakeAnswerTemplates(n int) []string {
	out := []string{"tmpl-0", "tmpl-1", "tmpl-2"}
	if n < len(out) {
		out = out[:n]
	}
	return out
}

func fakeAnswerFragments(n int) map[sqlast.FragmentKind][]string {
	out := map[sqlast.FragmentKind][]string{}
	for _, k := range sqlast.FragmentKinds {
		fr := []string{"f0", "f1", "f2"}
		if n < len(fr) {
			fr = fr[:n]
		}
		out[k] = fr
	}
	return out
}

func (p *fakePredictor) dispatch(ctx context.Context, toks []string) error {
	p.calls.Add(1)
	switch {
	case contains(toks, "slow"):
		<-ctx.Done()
		return ctx.Err()
	case contains(toks, "boom"):
		return errFakeModel
	case contains(toks, "panic"):
		panic("predictor exploded")
	}
	return nil
}

func contains(toks []string, want string) bool {
	for _, t := range toks {
		if strings.EqualFold(t, want) {
			return true
		}
	}
	return false
}

func (p *fakePredictor) Templates(ctx context.Context, prevToks, curToks []string, n int) ([]string, error) {
	if err := p.dispatch(ctx, curToks); err != nil {
		return nil, err
	}
	return fakeAnswerTemplates(n), nil
}

func (p *fakePredictor) Fragments(ctx context.Context, curToks []string, n int, opts core.NFragmentsOptions) (map[sqlast.FragmentKind][]string, error) {
	if err := p.dispatch(ctx, curToks); err != nil {
		return nil, err
	}
	return fakeAnswerFragments(n), nil
}

func testFallback() *Fallback {
	return NewFallback(
		[]string{"pop-t0", "pop-t1", "pop-t2", "pop-t3"},
		map[sqlast.FragmentKind][]string{
			sqlast.FragTable:  {"PhotoObj", "SpecObj"},
			sqlast.FragColumn: {"ra", "dec", "z"},
		},
	)
}

func fakeEngine(t *testing.T, opts EngineOptions) *Engine {
	t.Helper()
	if opts.Predictor == nil {
		opts.Predictor = &fakePredictor{}
	}
	eng := NewEngineWithOptions(nil, reccache.New(64), opts)
	t.Cleanup(eng.Close)
	return eng
}

func TestFallbackAnswer(t *testing.T) {
	fb := testFallback()
	res := fb.Answer(2)
	if !res.Degraded {
		t.Error("fallback answer not flagged degraded")
	}
	if want := []string{"pop-t0", "pop-t1"}; !reflect.DeepEqual(res.Templates, want) {
		t.Errorf("templates = %v, want %v", res.Templates, want)
	}
	if want := []string{"ra", "dec"}; !reflect.DeepEqual(res.Fragments[sqlast.FragColumn], want) {
		t.Errorf("columns = %v, want %v", res.Fragments[sqlast.FragColumn], want)
	}
	// Larger than the snapshot: the whole list, no padding.
	if res := fb.Answer(100); len(res.Templates) != 4 {
		t.Errorf("templates = %v, want all 4", res.Templates)
	}
	// Deterministic: identical calls yield identical answers.
	if !reflect.DeepEqual(fb.Answer(3), fb.Answer(3)) {
		t.Error("fallback answers differ between identical calls")
	}
}

func TestFallbackCopiesInputs(t *testing.T) {
	tmpl := []string{"a", "b"}
	frag := map[sqlast.FragmentKind][]string{sqlast.FragTable: {"x"}}
	fb := NewFallback(tmpl, frag)
	tmpl[0] = "mutated"
	frag[sqlast.FragTable][0] = "mutated"
	if got := fb.Answer(2).Templates[0]; got != "a" {
		t.Errorf("template aliased caller slice: %q", got)
	}
	if got := fb.Answer(1).Fragments[sqlast.FragTable][0]; got != "x" {
		t.Errorf("fragment aliased caller slice: %q", got)
	}
}

// TestSoftTimeoutDegrades proves the soft budget converts a stuck model
// call into a fast degraded answer while the caller's own deadline is
// still far away.
func TestSoftTimeoutDegrades(t *testing.T) {
	eng := fakeEngine(t, EngineOptions{
		Workers:     2,
		Fallback:    testFallback(),
		SoftTimeout: 20 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	res, err := eng.Recommend(ctx, testRequest("SELECT a FROM slow"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("soft-timeout answer not degraded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("degraded answer took %v; soft timeout did not bound it", took)
	}
	ov := eng.OverloadStats()
	if ov.SoftTimeouts != 1 || ov.Degraded != 1 {
		t.Errorf("stats = %+v, want 1 soft timeout and 1 degraded", ov)
	}
}

// TestSoftTimeoutWithoutFallback propagates the deadline error when
// degraded mode is off.
func TestSoftTimeoutWithoutFallback(t *testing.T) {
	eng := fakeEngine(t, EngineOptions{Workers: 2, SoftTimeout: 10 * time.Millisecond})
	_, err := eng.Recommend(context.Background(), testRequest("SELECT a FROM slow"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestCallerCancelNeverDegrades: the client is gone, so a degraded
// answer would be wasted and the breaker must not count it.
func TestCallerCancelNeverDegrades(t *testing.T) {
	brk := overload.NewBreaker(overload.BreakerConfig{FailureRatio: 0.5, Window: 4, MinSamples: 1})
	eng := fakeEngine(t, EngineOptions{
		Workers:  2,
		Fallback: testFallback(),
		Breaker:  brk,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := eng.Recommend(ctx, testRequest("SELECT a FROM slow"))
	if err == nil {
		t.Fatalf("expected error, got %+v", res)
	}
	if res != nil {
		t.Errorf("degraded answer for a cancelled caller: %+v", res)
	}
	if st := brk.Stats(); st.Samples != 0 {
		t.Errorf("breaker sampled a caller cancellation: %+v", st)
	}
}

// TestModelFailureDegrades serves the fallback when the predictor errors.
func TestModelFailureDegrades(t *testing.T) {
	eng := fakeEngine(t, EngineOptions{Workers: 2, Fallback: testFallback()})
	res, err := eng.Recommend(context.Background(), testRequest("SELECT a FROM boom"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("model-failure answer not degraded")
	}
	if ov := eng.OverloadStats(); ov.ModelFailures != 1 {
		t.Errorf("model failures = %d, want 1", ov.ModelFailures)
	}
}

// TestPredictorPanicRecovered: a crashing model path is an error (and a
// degradable one), not a dead worker.
func TestPredictorPanicRecovered(t *testing.T) {
	eng := fakeEngine(t, EngineOptions{Workers: 2})
	_, err := eng.Recommend(context.Background(), testRequest("SELECT a FROM panic"))
	var pp *PredictorPanicError
	if !errors.As(err, &pp) {
		t.Fatalf("err = %v, want PredictorPanicError", err)
	}
	// The pool survived: a healthy request still completes.
	if _, err := eng.Recommend(context.Background(), testRequest("SELECT a FROM good")); err != nil {
		t.Fatalf("pool broken after predictor panic: %v", err)
	}
}

// TestBreakerOpensAndSheds: repeated model failures open the circuit;
// subsequent requests shed to the fallback without touching the model.
func TestBreakerOpensAndSheds(t *testing.T) {
	pred := &fakePredictor{}
	brk := overload.NewBreaker(overload.BreakerConfig{
		FailureRatio: 0.5, Window: 4, MinSamples: 2, Cooldown: time.Hour,
	})
	eng := fakeEngine(t, EngineOptions{
		Workers: 2, Predictor: pred, Breaker: brk, Fallback: testFallback(),
	})
	for i := 0; i < 3; i++ {
		if _, err := eng.Recommend(context.Background(), testRequest("SELECT a FROM boom")); err != nil {
			t.Fatal(err)
		}
	}
	if brk.State() != overload.Open {
		t.Fatalf("breaker state = %v, want open", brk.State())
	}
	before := pred.calls.Load()
	res, err := eng.Recommend(context.Background(), testRequest("SELECT a FROM good"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("open-breaker answer not degraded")
	}
	if pred.calls.Load() != before {
		t.Error("open breaker still called the predictor")
	}
	if ov := eng.OverloadStats(); ov.Breaker.State != "open" || ov.Breaker.Rejected == 0 {
		t.Errorf("overload stats breaker = %+v", ov.Breaker)
	}
}

// stepClock is a hand-advanced clock safe to step from the test while
// the breaker reads it from request goroutines.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestBreakerAbandonedProbeDoesNotWedge: a half-open probe whose caller
// disconnects mid-call must release its probe slot (engine cancels the
// breaker ticket), so the next request becomes a fresh probe and can
// close the circuit. Before that fix, one abandoned probe left the
// breaker stuck half-open forever: all traffic degraded until restart.
func TestBreakerAbandonedProbeDoesNotWedge(t *testing.T) {
	pred := &fakePredictor{}
	clk := &stepClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	brk := overload.NewBreaker(overload.BreakerConfig{
		FailureRatio: 0.5, Window: 4, MinSamples: 1,
		Cooldown: time.Second, Clock: clk.Now,
	})
	eng := fakeEngine(t, EngineOptions{
		Workers: 2, Predictor: pred, Breaker: brk, Fallback: testFallback(),
	})
	if _, err := eng.Recommend(context.Background(), testRequest("SELECT a FROM boom")); err != nil {
		t.Fatal(err)
	}
	if brk.State() != overload.Open {
		t.Fatalf("breaker state = %v, want open", brk.State())
	}
	clk.Advance(2 * time.Second) // past cooldown: next request probes

	// The probe blocks in the model path until its caller walks away.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.Recommend(ctx, testRequest("SELECT a FROM slow"))
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for pred.calls.Load() == 2 { // 2 calls from the boom request
		if time.Now().After(deadline) {
			t.Fatal("probe never reached the predictor")
		}
		time.Sleep(time.Millisecond)
	}
	// While the lone probe slot is held, other traffic sheds.
	res, err := eng.Recommend(context.Background(), testRequest("SELECT a FROM good"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("request during held probe not degraded")
	}
	cancel() // the probe's caller disconnects
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned probe err = %v, want context.Canceled", err)
	}
	// The slot is free again: the next request is a fresh probe, and its
	// success closes the circuit.
	res, err = eng.Recommend(context.Background(), testRequest("SELECT b FROM good"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("fresh probe after abandonment still degraded: breaker wedged")
	}
	if brk.State() != overload.Closed {
		t.Errorf("breaker state = %v after successful probe, want closed", brk.State())
	}
}

// TestAdmissionShedsToFallback fills the in-flight cap with stuck
// requests and proves the next one is shed to a fast degraded answer.
func TestAdmissionShedsToFallback(t *testing.T) {
	// MaxQueue -1 keeps the queue rung out of the way (it would otherwise
	// default to the queue capacity and shed first): this test is about
	// the in-flight cap specifically.
	adm := overload.NewAdmission(overload.AdmissionConfig{MaxInFlight: 2, MaxQueue: -1})
	eng := fakeEngine(t, EngineOptions{
		Workers: 2, Queue: 2, Admission: adm, Fallback: testFallback(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.Recommend(ctx, testRequest("SELECT a FROM slow"))
		}()
	}
	// Wait until both are admitted and holding the cap.
	deadline := time.Now().Add(2 * time.Second)
	for adm.Stats().InFlight < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached 2: %+v", adm.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	res, err := eng.Recommend(context.Background(), testRequest("SELECT a FROM good"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("shed answer not degraded")
	}
	if st := adm.Stats(); st.ShedLoad == 0 {
		t.Errorf("no shed recorded: %+v", st)
	}
	cancel()
	wg.Wait()
}

// TestAdmissionShedWithoutFallback returns the typed overload rejection.
func TestAdmissionShedWithoutFallback(t *testing.T) {
	adm := overload.NewAdmission(overload.AdmissionConfig{MaxInFlight: 1, RetryAfter: 2 * time.Second})
	eng := fakeEngine(t, EngineOptions{Workers: 1, Admission: adm})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.Recommend(ctx, testRequest("SELECT a FROM slow"))
	}()
	deadline := time.Now().Add(2 * time.Second)
	for adm.Stats().InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached 1: %+v", adm.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	_, err := eng.Recommend(context.Background(), testRequest("SELECT a FROM good"))
	if !errors.Is(err, overload.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *overload.Error
	if !errors.As(err, &oe) || oe.RetryAfter != 2*time.Second {
		t.Errorf("err = %#v, want RetryAfter 2s", err)
	}
	cancel()
	wg.Wait()
}

// TestShedCacheHit: a shed request whose answer is fully resident in the
// cache gets the full-quality result, not the degraded snapshot.
func TestShedCacheHit(t *testing.T) {
	adm := overload.NewAdmission(overload.AdmissionConfig{MaxInFlight: 1})
	eng := fakeEngine(t, EngineOptions{
		Workers: 2, Queue: 2, Admission: adm, Fallback: testFallback(),
	})
	req := testRequest("SELECT a FROM good")
	warm, err := eng.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.Recommend(ctx, testRequest("SELECT a FROM slow"))
	}()
	deadline := time.Now().Add(2 * time.Second)
	for adm.Stats().InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached 1: %+v", adm.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	res, err := eng.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Error("cache-resident shed request was degraded")
	}
	if !reflect.DeepEqual(res.Templates, warm.Templates) {
		t.Errorf("templates = %v, want cached %v", res.Templates, warm.Templates)
	}
	if ov := eng.OverloadStats(); ov.ShedCacheHits != 1 {
		t.Errorf("shed cache hits = %d, want 1", ov.ShedCacheHits)
	}
	cancel()
	wg.Wait()
}

// TestRecommendBatchMixedOutcomes is the satellite contract: good, bad
// and cancelled items in one batch keep positional order, and a stuck
// item's per-item soft budget never poisons its siblings.
func TestRecommendBatchMixedOutcomes(t *testing.T) {
	// Enough workers that the healthy items never queue behind the stuck
	// one and trip their own soft budgets under -race on one CPU.
	eng := fakeEngine(t, EngineOptions{
		Workers:     6,
		Queue:       8,
		Fallback:    testFallback(),
		SoftTimeout: 200 * time.Millisecond,
	})
	reqs := []Request{
		testRequest("SELECT a FROM good"),
		testRequest("%%%"),                // unparseable: per-item error
		testRequest("SELECT a FROM slow"), // stuck: per-item soft budget degrades it
		testRequest("SELECT b FROM good"),
	}
	start := time.Now()
	items := eng.RecommendBatch(context.Background(), reqs)
	took := time.Since(start)
	if len(items) != 4 {
		t.Fatalf("got %d items", len(items))
	}
	if items[0].Err != nil || items[0].Result == nil || items[0].Result.Degraded {
		t.Errorf("item 0 (good) = %+v", items[0])
	}
	var bad *BadQueryError
	if !errors.As(items[1].Err, &bad) {
		t.Errorf("item 1 err = %v, want BadQueryError", items[1].Err)
	}
	if items[2].Err != nil || items[2].Result == nil || !items[2].Result.Degraded {
		t.Errorf("item 2 (slow) = %+v, want degraded", items[2])
	}
	if items[3].Err != nil || items[3].Result == nil || items[3].Result.Degraded {
		t.Errorf("item 3 (good) = %+v", items[3])
	}
	if want := fakeAnswerTemplates(3); !reflect.DeepEqual(items[0].Result.Templates, want) {
		t.Errorf("item 0 templates = %v, want %v", items[0].Result.Templates, want)
	}
	if took > 5*time.Second {
		t.Errorf("batch took %v; stuck item was not bounded by its soft budget", took)
	}
}

// TestRecommendBatchSiblingCancellation: one item carrying a cancelled
// request context (simulated via a stuck predictor and no fallback)
// fails alone; siblings still answer.
func TestRecommendBatchSiblingCancellation(t *testing.T) {
	// Enough workers that the healthy items never queue behind the stuck
	// one and trip their own soft budgets under -race on one CPU.
	eng := fakeEngine(t, EngineOptions{Workers: 6, Queue: 8, SoftTimeout: 200 * time.Millisecond})
	reqs := []Request{
		testRequest("SELECT a FROM good"),
		testRequest("SELECT a FROM slow"),
		testRequest("SELECT b FROM good"),
	}
	items := eng.RecommendBatch(context.Background(), reqs)
	if items[0].Err != nil || items[2].Err != nil {
		t.Errorf("siblings poisoned: %v / %v", items[0].Err, items[2].Err)
	}
	if !errors.Is(items[1].Err, context.DeadlineExceeded) {
		t.Errorf("item 1 err = %v, want DeadlineExceeded", items[1].Err)
	}
}

// slowPredictor answers like fakePredictor after a fixed delay, long
// enough that a batch's pool tasks are still queued when its later items
// pass admission.
type slowPredictor struct {
	fakePredictor
	delay time.Duration
}

func (p *slowPredictor) Templates(ctx context.Context, prevToks, curToks []string, n int) ([]string, error) {
	time.Sleep(p.delay)
	return p.fakePredictor.Templates(ctx, prevToks, curToks, n)
}

func (p *slowPredictor) Fragments(ctx context.Context, curToks []string, n int, opts core.NFragmentsOptions) (map[sqlast.FragmentKind][]string, error) {
	time.Sleep(p.delay)
	return p.fakePredictor.Fragments(ctx, curToks, n, opts)
}

// TestRecommendBatchDoesNotShedItself: an idle engine configured the way
// qrec-serve derives its defaults (queue = workers, admission cap
// 2 × (workers + queue), breaker and fallback on) must answer every item
// of an 8-item batch from the model. A batch that starts all its items at
// once fills the queue admission reads, and its later items shed to the
// fallback.
func TestRecommendBatchDoesNotShedItself(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		adm := overload.NewAdmission(overload.AdmissionConfig{MaxInFlight: 2 * (workers + workers)})
		eng := fakeEngine(t, EngineOptions{
			Workers:     workers,
			Predictor:   &slowPredictor{delay: 3 * time.Millisecond},
			Admission:   adm,
			Breaker:     overload.NewBreaker(overload.BreakerConfig{FailureRatio: 0.5}),
			Fallback:    testFallback(),
			SoftTimeout: 5 * time.Second,
		})
		reqs := make([]Request, 8)
		for i := range reqs {
			reqs[i] = testRequest(fmt.Sprintf("SELECT c%d FROM t", i))
		}
		for i, it := range eng.RecommendBatch(context.Background(), reqs) {
			if it.Err != nil || it.Result == nil || it.Result.Degraded {
				t.Errorf("workers=%d item %d = %+v (err %v), want a model answer", workers, i, it.Result, it.Err)
			}
		}
		if st := adm.Stats(); st.ShedLoad+st.ShedQueue != 0 {
			t.Errorf("workers=%d: the batch shed %d of its own items: %+v", workers, st.ShedLoad+st.ShedQueue, st)
		}
	}
}
