package server

// Error-path, golden-JSON, batch and serving-config coverage beyond the
// happy-path tests in server_test.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sqlast"
)

func postTo(t *testing.T, srv http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewBufferString(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// TestRecommendErrorPaths is the table-driven sweep over every rejection
// the endpoint can produce.
func TestRecommendErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	srv := New(trainedRecommender(t))
	defer srv.Close()
	cases := []struct {
		name    string
		method  string
		body    string
		want    int
		errPart string
	}{
		{"get", http.MethodGet, "", http.StatusMethodNotAllowed, "POST required"},
		{"put", http.MethodPut, `{"sql":"SELECT a FROM t"}`, http.StatusMethodNotAllowed, "POST required"},
		{"empty body", http.MethodPost, ``, http.StatusBadRequest, "invalid JSON"},
		{"bad json", http.MethodPost, `{`, http.StatusBadRequest, "invalid JSON"},
		{"json wrong type", http.MethodPost, `{"sql": 42}`, http.StatusBadRequest, "invalid JSON"},
		{"missing sql", http.MethodPost, `{}`, http.StatusBadRequest, "sql is required"},
		{"empty sql", http.MethodPost, `{"sql": ""}`, http.StatusBadRequest, "sql is required"},
		{"unknown strategy", http.MethodPost, `{"sql": "SELECT a FROM t", "strategy": "dfs"}`, http.StatusBadRequest, `unknown strategy "dfs"`},
		{"unparseable sql", http.MethodPost, `{"sql": "DROP TABLE x"}`, http.StatusUnprocessableEntity, "cannot parse query"},
		{"unparseable prev", http.MethodPost, `{"sql": "SELECT ra FROM PhotoObj", "prev_sql": "%%%"}`, http.StatusUnprocessableEntity, "cannot parse query"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(c.method, "/v1/recommend", bytes.NewBufferString(c.body))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != c.want {
				t.Fatalf("status %d want %d (%s)", w.Code, c.want, w.Body.String())
			}
			var e map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if !strings.Contains(e["error"], c.errPart) {
				t.Errorf("error %q does not contain %q", e["error"], c.errPart)
			}
		})
	}
}

// TestNClamping pins the N normalization: <=0 becomes the default 3,
// values above 25 are clamped to 25.
func TestNClamping(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	rec := trainedRecommender(t)
	srv := New(rec)
	defer srv.Close()
	clamp := func(n int) int {
		if n > len(rec.Classifier.Classes) {
			return len(rec.Classifier.Classes)
		}
		return n
	}
	cases := []struct {
		n    int
		want int // expected template count
	}{
		{0, clamp(3)},
		{-5, clamp(3)},
		{1, 1},
		{25, clamp(25)},
		{100, clamp(25)},
	}
	for _, c := range cases {
		w := postTo(t, srv, "/v1/recommend",
			fmt.Sprintf(`{"sql": "SELECT ra FROM PhotoObj", "n": %d}`, c.n))
		if w.Code != http.StatusOK {
			t.Fatalf("n=%d: status %d (%s)", c.n, w.Code, w.Body.String())
		}
		var resp RecommendResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Templates) != c.want {
			t.Errorf("n=%d: %d templates, want %d", c.n, len(resp.Templates), c.want)
		}
	}
}

// TestOversizedBody verifies MaxBytesReader enforcement returns 413.
func TestOversizedBody(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	srv := NewWithConfig(trainedRecommender(t), Config{MaxBodyBytes: 64})
	defer srv.Close()
	big := `{"sql": "SELECT ra FROM PhotoObj WHERE ` + strings.Repeat("ra > 0 AND ", 50) + ` ra > 0"}`
	w := postTo(t, srv, "/v1/recommend", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d want 413 (%s)", w.Code, w.Body.String())
	}
	// Within the limit still works.
	w = postTo(t, srv, "/v1/recommend", `{"sql": "SELECT ra FROM PhotoObj"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("small body status %d (%s)", w.Code, w.Body.String())
	}
}

// TestRequestTimeout drives the per-request deadline to zero and expects
// 504.
func TestRequestTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	srv := NewWithConfig(trainedRecommender(t), Config{Timeout: time.Nanosecond})
	defer srv.Close()
	w := postTo(t, srv, "/v1/recommend", `{"sql": "SELECT ra FROM PhotoObj"}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d want 504 (%s)", w.Code, w.Body.String())
	}
}

// TestGoldenRecommendJSON asserts the exact wire bytes for a fixed-seed
// model: the handler response must be byte-identical to the JSON encoding
// of the recommendations computed directly through the core API (the seed
// serving path).
func TestGoldenRecommendJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	rec := trainedRecommender(t)
	srv := New(rec)
	defer srv.Close()

	sql := "SELECT ra, dec FROM PhotoObj WHERE ra > 180.0"
	templates, err := rec.NextTemplates(sql, 2)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := rec.NextFragments(sql, 2, core.DefaultNFragmentsOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := RecommendResponse{Templates: templates, Fragments: map[string][]string{}}
	for _, kind := range sqlast.FragmentKinds {
		if len(frags[kind]) > 0 {
			want.Fragments[kind.String()] = frags[kind]
		}
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	w := postTo(t, srv, "/v1/recommend", `{"sql": "`+sql+`", "n": 2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d (%s)", w.Code, w.Body.String())
	}
	got := strings.TrimSuffix(w.Body.String(), "\n")
	if got != string(wantBytes) {
		t.Errorf("wire bytes diverge from core API result:\ngot:  %s\nwant: %s", got, wantBytes)
	}
	// Shape: the golden body decodes into exactly the documented fields.
	var shape map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &shape); err != nil {
		t.Fatal(err)
	}
	for k := range shape {
		if k != "templates" && k != "fragments" {
			t.Errorf("unexpected top-level key %q", k)
		}
	}
}

// TestWriteJSONEncodeError is the regression test for writeJSON silently
// discarding encode errors: an unmarshalable value must yield a
// well-formed JSON 500, not an empty 200 body.
func TestWriteJSONEncodeError(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]any{"f": func() {}})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d want 500", w.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("fallback body is not JSON: %v (%q)", err, w.Body.String())
	}
	if !strings.Contains(e["error"], "encode response") {
		t.Errorf("fallback error %q", e["error"])
	}
}

func TestBatchEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	srv := New(trainedRecommender(t))
	defer srv.Close()

	t.Run("mixed results", func(t *testing.T) {
		w := postTo(t, srv, "/v1/recommend/batch", `{"requests": [
			{"sql": "SELECT ra FROM PhotoObj", "n": 2},
			{"sql": "garbage((("},
			{"sql": ""},
			{"sql": "SELECT ra FROM PhotoObj", "strategy": "bogus"}
		]}`)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d (%s)", w.Code, w.Body.String())
		}
		var resp BatchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 4 {
			t.Fatalf("got %d results", len(resp.Results))
		}
		if resp.Results[0].Error != "" || len(resp.Results[0].Templates) != 2 {
			t.Errorf("result 0: %+v", resp.Results[0])
		}
		if !strings.Contains(resp.Results[1].Error, "parse") {
			t.Errorf("result 1 error %q", resp.Results[1].Error)
		}
		if resp.Results[2].Error != "sql is required" {
			t.Errorf("result 2 error %q", resp.Results[2].Error)
		}
		if !strings.Contains(resp.Results[3].Error, "unknown strategy") {
			t.Errorf("result 3 error %q", resp.Results[3].Error)
		}
	})

	t.Run("empty batch", func(t *testing.T) {
		if w := postTo(t, srv, "/v1/recommend/batch", `{"requests": []}`); w.Code != http.StatusBadRequest {
			t.Errorf("status %d want 400", w.Code)
		}
	})

	t.Run("method not allowed", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/v1/recommend/batch", nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("status %d want 405", w.Code)
		}
	})

	t.Run("batch matches single", func(t *testing.T) {
		single := postTo(t, srv, "/v1/recommend", `{"sql": "SELECT ra FROM PhotoObj", "n": 2}`)
		var want RecommendResponse
		if err := json.Unmarshal(single.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		w := postTo(t, srv, "/v1/recommend/batch", `{"requests": [{"sql": "SELECT ra FROM PhotoObj", "n": 2}]}`)
		var resp BatchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		got := resp.Results[0]
		if fmt.Sprint(got.Templates) != fmt.Sprint(want.Templates) ||
			fmt.Sprint(got.Fragments) != fmt.Sprint(want.Fragments) {
			t.Errorf("batch item %+v != single %+v", got, want)
		}
	})
}

func TestBatchTooLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	srv := NewWithConfig(trainedRecommender(t), Config{MaxBatch: 2})
	defer srv.Close()
	w := postTo(t, srv, "/v1/recommend/batch",
		`{"requests": [{"sql":"SELECT a FROM t"},{"sql":"SELECT a FROM t"},{"sql":"SELECT a FROM t"}]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d want 400 (%s)", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "exceeds limit 2") {
		t.Errorf("body %q", w.Body.String())
	}
}

// TestHealthzServingStats verifies cache and pool telemetry surface on the
// health endpoint.
func TestHealthzServingStats(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	srv := New(trainedRecommender(t))
	defer srv.Close()
	// Warm the cache with a repeat.
	postTo(t, srv, "/v1/recommend", `{"sql": "SELECT ra FROM PhotoObj"}`)
	postTo(t, srv, "/v1/recommend", `{"sql": "SELECT ra FROM PhotoObj"}`)

	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var h struct {
		Status string `json:"status"`
		Cache  struct {
			Hits     uint64  `json:"hits"`
			Misses   uint64  `json:"misses"`
			Entries  int     `json:"entries"`
			Capacity int     `json:"capacity"`
			HitRate  float64 `json:"hit_rate"`
		} `json:"cache"`
		Pool struct {
			Workers  int    `json:"workers"`
			Executed uint64 `json:"executed"`
		} `json:"pool"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if h.Cache.Hits < 2 || h.Cache.Misses < 2 || h.Cache.Entries < 2 {
		t.Errorf("cache stats %+v", h.Cache)
	}
	// The first request runs its two model halves on the pool; the
	// cached repeat answers before reaching it.
	if h.Pool.Workers < 1 || h.Pool.Executed != 2 {
		t.Errorf("pool stats %+v, want 2 executed", h.Pool)
	}
}

// TestCacheDisabled verifies a negative CacheSize serves correctly without
// memoization.
func TestCacheDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	srv := NewWithConfig(trainedRecommender(t), Config{CacheSize: -1})
	defer srv.Close()
	for i := 0; i < 2; i++ {
		if w := postTo(t, srv, "/v1/recommend", `{"sql": "SELECT ra FROM PhotoObj"}`); w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var h struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Cache.Hits != 0 || h.Cache.Misses != 0 {
		t.Errorf("disabled cache reported traffic: %+v", h.Cache)
	}
}
