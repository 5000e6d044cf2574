package servepool

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/reccache"
	"repro/internal/seq2seq"
	"repro/internal/synth"
	"repro/internal/tokenizer"
)

var (
	engRecOnce sync.Once
	engRec     *core.Recommender
)

// engineRecommender trains one tiny model shared by all engine tests.
func engineRecommender(t *testing.T) *core.Recommender {
	t.Helper()
	engRecOnce.Do(func() {
		prof := synth.SDSSProfile()
		prof.Sessions = 40
		wl := synth.Generate(prof, 7)
		ds, err := core.Prepare(wl, core.DefaultPrepConfig())
		if err != nil {
			panic(err)
		}
		cfg := core.DefaultTrainConfig(seq2seq.Transformer)
		cfg.SeqOpts.Epochs = 1
		cfg.ClsOpts.Epochs = 1
		cfg.MaxTrainPairs = 40
		mcfg := seq2seq.DefaultConfig(seq2seq.Transformer, 0)
		mcfg.DModel = 16
		mcfg.FFHidden = 16
		cfg.Model = &mcfg
		rec, err := core.Train(ds, cfg)
		if err != nil {
			panic(err)
		}
		engRec = rec
	})
	return engRec
}

func testRequest(sql string) Request {
	return Request{SQL: sql, N: 3, Opts: core.DefaultNFragmentsOptions()}
}

// TestRecommendMatchesSequentialPath asserts the pooled (and cached)
// engine produces exactly the results of the direct core API calls the
// seed server made back-to-back.
func TestRecommendMatchesSequentialPath(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	rec := engineRecommender(t)
	eng := NewEngine(rec, reccache.New(128), 4)
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
	for pass := 0; pass < 3; pass++ { // cold, then cached
		got, err := eng.Recommend(context.Background(), testRequest(sql))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Templates, wantTmpl) {
			t.Errorf("pass %d templates = %v, want %v", pass, got.Templates, wantTmpl)
		}
		if !reflect.DeepEqual(got.Fragments, wantFrag) {
			t.Errorf("pass %d fragments = %v, want %v", pass, got.Fragments, wantFrag)
		}
	}
	if st := eng.CacheStats(); st.Hits < 4 { // 2 cached passes x 2 halves
		t.Errorf("cache stats after repeats: %+v", st)
	}
}

// TestRecommendContextMatchesSequentialPath covers the prev_sql path.
func TestRecommendContextMatchesSequentialPath(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	rec := engineRecommender(t)
	eng := NewEngine(rec, nil, 2)
	defer eng.Close()
	prev, cur := "SELECT TOP 10 * FROM PhotoObj", "SELECT ra FROM PhotoObj"
	want, err := rec.NextTemplatesContext(prev, cur, 2)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(cur)
	req.PrevSQL = prev
	req.N = 2
	got, err := eng.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Templates, want) {
		t.Errorf("templates = %v, want %v", got.Templates, want)
	}
}

func TestRecommendBadQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	eng := NewEngine(engineRecommender(t), nil, 1)
	defer eng.Close()
	for _, sql := range []string{"DROP TABLE x", "SELECT FROM", "%%%"} {
		_, err := eng.Recommend(context.Background(), testRequest(sql))
		var bad *BadQueryError
		if !errors.As(err, &bad) {
			t.Errorf("%q: err = %v, want BadQueryError", sql, err)
		}
	}
	// Bad PrevSQL is also a 422-class error.
	req := testRequest("SELECT ra FROM PhotoObj")
	req.PrevSQL = "DELETE FROM x"
	var bad *BadQueryError
	if _, err := eng.Recommend(context.Background(), req); !errors.As(err, &bad) {
		t.Errorf("bad prev_sql: err = %v, want BadQueryError", err)
	}
}

// TestRecommendRejectsOverlongQuery: a query whose encoder input exceeds
// the model's positional table is the caller's error (422), not a model
// failure — it must not reach the model, count as a failure, or feed the
// breaker that guards every other client.
func TestRecommendRejectsOverlongQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	rec := engineRecommender(t)
	eng := NewEngineWithOptions(rec, nil, EngineOptions{
		Workers:  1,
		Breaker:  overload.NewBreaker(overload.BreakerConfig{Window: 8, MinSamples: 1}),
		Fallback: FallbackFromRecommender(rec, 3),
	})
	defer eng.Close()
	sql := "SELECT ra" + strings.Repeat(", ra", 99) + " FROM PhotoObj"
	if n := len(rec.Vocab.Encode(mustTokenize(t, sql), true)); n <= rec.Model.Config().MaxLen {
		t.Fatalf("probe encodes to %d tokens, want more than MaxLen %d", n, rec.Model.Config().MaxLen)
	}
	for _, prev := range []string{"", "SELECT ra FROM PhotoObj"} {
		req := testRequest(sql)
		req.PrevSQL = prev
		var bad *BadQueryError
		if _, err := eng.Recommend(context.Background(), req); !errors.As(err, &bad) {
			t.Fatalf("prev %q: err = %v, want BadQueryError", prev, err)
		}
	}
	st := eng.OverloadStats()
	if st.ModelFailures != 0 || st.Breaker.Samples != 0 || st.Degraded != 0 {
		t.Fatalf("overlong query reached the model path: %+v", st)
	}
	// A normal query from another client still gets a full answer.
	res, err := eng.Recommend(context.Background(), testRequest("SELECT ra FROM PhotoObj"))
	if err != nil || res.Degraded {
		t.Fatalf("normal query after overlong ones: res=%+v err=%v", res, err)
	}
}

func mustTokenize(t *testing.T, sql string) []string {
	t.Helper()
	toks, err := tokenizer.Tokenize(sql)
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

func TestRecommendCancelledContext(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	eng := NewEngine(engineRecommender(t), nil, 1)
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Recommend(ctx, testRequest("SELECT ra FROM PhotoObj")); err == nil {
		t.Error("expected error from cancelled context")
	}
}

func TestRecommendBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	rec := engineRecommender(t)
	eng := NewEngine(rec, reccache.New(256), 4)
	defer eng.Close()
	reqs := []Request{
		testRequest("SELECT ra FROM PhotoObj"),
		testRequest("not sql at all ((("),
		testRequest("SELECT ra, dec FROM PhotoObj WHERE ra > 180.0"),
	}
	items := eng.RecommendBatch(context.Background(), reqs)
	if len(items) != 3 {
		t.Fatalf("got %d items", len(items))
	}
	if items[0].Err != nil || items[0].Result == nil {
		t.Errorf("item 0: %+v", items[0])
	}
	var bad *BadQueryError
	if !errors.As(items[1].Err, &bad) {
		t.Errorf("item 1 err = %v, want BadQueryError", items[1].Err)
	}
	// Order is preserved: item 2 matches a direct computation.
	want, _ := rec.NextTemplates(reqs[2].SQL, 3)
	if !reflect.DeepEqual(items[2].Result.Templates, want) {
		t.Errorf("item 2 templates = %v, want %v", items[2].Result.Templates, want)
	}
}
