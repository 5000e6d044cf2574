// Package server exposes a trained Recommender over HTTP with a small
// JSON API, the deployment shape a database-as-a-service platform (the
// paper's SQLShare setting) would embed:
//
//	POST /v1/recommend        {"sql": "...", "prev_sql": "...", "n": 3}
//	  -> {"templates": [...], "fragments": {"table": [...], ...}}
//	POST /v1/recommend/batch  {"requests": [{...}, ...]}
//	  -> {"results": [{...}, {"error": "..."}, ...]}
//	GET  /v1/healthz          -> {"status":"ok", "cache": {...}, ...}
//
// Requests are executed by the servepool engine: template and fragment
// prediction run in parallel on a bounded worker pool, and results are
// memoized in a sharded LRU inference cache (see internal/servepool and
// internal/reccache). The handler is stateless per request and safe for
// concurrent use: model inference only reads parameters — a claim the
// package's concurrency tests verify under the race detector.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/modeldir"
	"repro/internal/overload"
	"repro/internal/reccache"
	"repro/internal/servepool"
	"repro/internal/sqlast"
)

// RecommendRequest is the /v1/recommend input (and one element of a batch
// request).
type RecommendRequest struct {
	// SQL is the user's current query Q_i (required).
	SQL string `json:"sql"`
	// PrevSQL optionally supplies Q_{i-1} for context-trained models.
	PrevSQL string `json:"prev_sql,omitempty"`
	// N bounds the number of templates and fragments per type
	// (default 3, max 25).
	N int `json:"n,omitempty"`
	// Strategy selects the N-fragments search: "beam" (default),
	// "diverse-beam" or "sampling".
	Strategy string `json:"strategy,omitempty"`
}

// RecommendResponse is the /v1/recommend output.
type RecommendResponse struct {
	Templates []string            `json:"templates"`
	Fragments map[string][]string `json:"fragments"`
	// Degraded marks an answer served from the pre-warmed Popular
	// fallback instead of the model (overload shed, open breaker, or
	// soft-deadline miss). Omitted on full-quality answers, so the wire
	// shape is unchanged for them.
	Degraded bool `json:"degraded,omitempty"`
}

// BatchRequest is the /v1/recommend/batch input.
type BatchRequest struct {
	Requests []RecommendRequest `json:"requests"`
}

// BatchItem is one /v1/recommend/batch result: either the recommendation
// or a per-request error message.
type BatchItem struct {
	Templates []string            `json:"templates,omitempty"`
	Fragments map[string][]string `json:"fragments,omitempty"`
	Degraded  bool                `json:"degraded,omitempty"`
	Error     string              `json:"error,omitempty"`
}

// BatchResponse is the /v1/recommend/batch output, one item per request in
// request order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// Config tunes the serving core. The zero value selects the defaults
// below, with every overload-resilience feature off — byte-identical
// behavior to the plain serving core.
type Config struct {
	// CacheSize bounds the inference cache in entries. 0 means
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// Workers sizes the prediction worker pool. 0 means GOMAXPROCS.
	Workers int
	// Timeout is the hard per-request deadline. 0 means DefaultTimeout.
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxBatch bounds the number of requests in one batch call. 0 means
	// DefaultMaxBatch.
	MaxBatch int

	// MaxQueue sizes the pool task queue. 0 keeps the historical
	// default (= Workers). When admission control is enabled
	// (MaxInFlight > 0), the resolved capacity also bounds the live
	// queue depth: requests arriving with the queue full are shed.
	MaxQueue int
	// MaxInFlight caps concurrently admitted requests; excess load is
	// shed early (degraded answer, or 429 without a Fallback) instead of
	// queueing toward the hard timeout. 0 disables admission control.
	MaxInFlight int
	// SoftTimeout bounds each request's model work below the hard
	// Timeout, leaving room to answer degraded instead of 504. Batch
	// items get their own soft budget each. 0 disables.
	SoftTimeout time.Duration
	// BatchSize caps the items of one model pass. When >= 2, concurrent
	// requests (and /v1/recommend/batch items) coalesce into batched
	// model passes of at most this many items, bit-identical to one-item
	// passes. 0 or 1 means no coalescing wait.
	BatchSize int
	// BatchWindow bounds how long the first request of a forming batch
	// waits for company; <= 0 uses the engine default (500µs). Ignored
	// unless BatchSize enables coalescing.
	BatchWindow time.Duration
	// Rate and Burst configure the per-client token-bucket limiter
	// (requests/second and bucket size, keyed by X-Client-ID or remote
	// host). Rate 0 disables rate limiting.
	Rate  float64
	Burst float64
	// BreakerRatio arms the model-path circuit breaker: the circuit
	// opens when the failure ratio over a rolling window reaches it
	// (soft timeouts, predictor errors and recovered panics all count).
	// 0 disables the breaker.
	BreakerRatio float64
	// Fallback enables degraded mode: shed or over-budget requests
	// answer from this pre-warmed Popular snapshot, flagged
	// "degraded":true. nil disables (shed requests get 429/5xx).
	Fallback *servepool.Fallback
	// Predictor overrides the model path (chaos/failure-injection tests
	// and custom backends). nil uses the trained recommender.
	Predictor servepool.Predictor
	// Now injects the wall clock for the limiter and breaker. nil means
	// time.Now.
	Now func() time.Time

	// ReplicaID names this serving process in a multi-replica topology.
	// When set it is echoed on every response as the X-Replica-ID header
	// and reported on /v1/healthz, so the gateway's chaos tests and
	// operators can attribute responses to replicas.
	ReplicaID string
	// EnablePush exposes POST /v1/model/push: the replica accepts a set
	// of checksummed artifact envelopes, validates them, optionally
	// persists them (ModelDir), and hot-swaps the serving engine with
	// zero dropped requests. Off by default — the endpoint rebuilds the
	// model, so only private/admin networks should reach it.
	EnablePush bool
	// ModelDir, when set with EnablePush, persists accepted pushes into
	// this directory through the atomic envelope writer before swapping,
	// so a restart comes back up on the pushed model.
	ModelDir string
	// MaxPushBytes bounds the push request body. 0 means
	// DefaultMaxPushBytes.
	MaxPushBytes int64
	// FallbackFactory, when set, re-derives the degraded-mode snapshot
	// from the new recommender after a hot swap (the static Fallback
	// field keeps serving until then). qrec-serve wires
	// servepool.FallbackFromRecommender here.
	FallbackFactory func(*core.Recommender) *servepool.Fallback
}

// Serving defaults.
const (
	DefaultCacheSize    = 4096
	DefaultTimeout      = 30 * time.Second
	DefaultMaxBodyBytes = 1 << 20 // 1 MiB
	DefaultMaxBatch     = 64
	// DefaultRetryAfter is the backoff hint attached to admission sheds.
	DefaultRetryAfter = time.Second
	// DefaultMaxPushBytes bounds /v1/model/push bodies: model artifacts
	// are much larger than recommend requests (64 MiB default).
	DefaultMaxPushBytes = 64 << 20
	// DefaultDrainRetryAfter is the probe-backoff hint a draining
	// replica's 503 healthz carries, so gateways and load balancers stop
	// tight-looping probes against a process that is going away.
	DefaultDrainRetryAfter = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.MaxPushBytes == 0 {
		c.MaxPushBytes = DefaultMaxPushBytes
	}
	return c
}

// engineHandle is a refcounted engine generation. Requests acquire a
// reference for their lifetime; a hot swap drops the owner reference and
// the engine closes only when the last in-flight request releases —
// never under one. The refcount starts at 1 (the Server's owner ref).
type engineHandle struct {
	eng       *servepool.Engine
	refs      atomic.Int64
	closeOnce sync.Once
}

func newEngineHandle(eng *servepool.Engine) *engineHandle {
	h := &engineHandle{eng: eng}
	h.refs.Store(1)
	return h
}

// release drops one reference, closing the engine when the last holder
// (request or owner) lets go. The sync.Once guards the close against the
// acquire-recheck race: a reader that bumps a just-retired handle back
// above zero and then releases it would otherwise close twice.
func (h *engineHandle) release() {
	if h.refs.Add(-1) == 0 {
		h.closeOnce.Do(h.eng.Close)
	}
}

// Server wires a Recommender into an http.Handler. A panic in any
// handler is recovered by ServeHTTP: the request gets a JSON 500, a
// counter exposed on /v1/healthz is incremented, and the process keeps
// serving.
//
// The engine behind the handler is swappable at runtime
// (SwapRecommender / POST /v1/model/push): the current generation is
// held through a refcounted handle, so during a model hot swap the old
// engine keeps answering its in-flight requests while new requests land
// on the new engine — zero requests dropped.
type Server struct {
	cur         atomic.Pointer[engineHandle]
	cfg         Config
	mux         *http.ServeMux
	limiter     *overload.Limiter
	panics      atomic.Int64
	rateLimited atomic.Uint64
	draining    atomic.Bool
	swaps       atomic.Uint64
	closeOnce   sync.Once
}

// New builds the handler around a trained recommender with default serving
// config.
func New(rec *core.Recommender) *Server { return NewWithConfig(rec, Config{}) }

// breakerSeed fixes the breaker's cooldown-jitter stream so two servers
// built from the same config behave identically (see internal/lint's
// detrand rule: randomness is seeded, never ambient).
const breakerSeed = 0x9e3779b97f4a7c15 & (1<<63 - 1)

// NewWithConfig builds the handler with explicit serving config.
func NewWithConfig(rec *core.Recommender, cfg Config) *Server {
	cfg = cfg.withDefaults()
	var lim *overload.Limiter
	if cfg.Rate > 0 {
		lim = overload.NewLimiter(overload.LimiterConfig{
			Rate:  cfg.Rate,
			Burst: cfg.Burst,
			Clock: cfg.Now,
		})
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		limiter: lim,
	}
	s.cur.Store(newEngineHandle(s.buildEngine(rec, cfg.Fallback)))
	s.mux.HandleFunc("/v1/recommend", s.handleRecommend)
	s.mux.HandleFunc("/v1/recommend/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/healthz", s.handleHealth)
	if cfg.EnablePush {
		s.mux.HandleFunc("/v1/model/push", s.handlePush)
	}
	return s
}

// buildEngine constructs one engine generation: its own worker pool,
// inference cache (stale entries from the previous model must not leak
// across a swap), admission controller and breaker. The rate limiter is
// server-level and survives swaps — client budgets are not reset by a
// model update.
func (s *Server) buildEngine(rec *core.Recommender, fb *servepool.Fallback) *servepool.Engine {
	cfg := s.cfg
	var adm *overload.Admission
	if cfg.MaxInFlight > 0 {
		adm = overload.NewAdmission(overload.AdmissionConfig{
			MaxInFlight: cfg.MaxInFlight,
			RetryAfter:  DefaultRetryAfter,
		})
	}
	var brk *overload.Breaker
	if cfg.BreakerRatio > 0 {
		brk = overload.NewBreaker(overload.BreakerConfig{
			FailureRatio: cfg.BreakerRatio,
			Clock:        cfg.Now,
			Seed:         breakerSeed,
		})
	}
	return servepool.NewEngineWithOptions(rec, reccache.New(cfg.CacheSize), servepool.EngineOptions{
		Workers:     cfg.Workers,
		Queue:       cfg.MaxQueue,
		Predictor:   cfg.Predictor,
		Admission:   adm,
		Breaker:     brk,
		Fallback:    fb,
		SoftTimeout: cfg.SoftTimeout,
		BatchSize:   cfg.BatchSize,
		BatchWindow: cfg.BatchWindow,
		Now:         cfg.Now,
	})
}

// acquire pins the current engine generation for one request. The
// recheck loop closes the window where a swap retires the loaded handle
// between Load and Add: a reference taken on a retired handle is dropped
// and the read retries on the new generation, so a request never runs on
// an engine that may close under it.
func (s *Server) acquire() *engineHandle {
	for {
		h := s.cur.Load()
		h.refs.Add(1)
		if s.cur.Load() == h {
			return h
		}
		h.release()
	}
}

// engine peeks at the current generation without pinning it — for
// telemetry reads (healthz, stats, tests), which tolerate racing a swap.
func (s *Server) engine() *servepool.Engine { return s.cur.Load().eng }

// SwapRecommender hot-swaps the serving model: a new engine generation
// (fresh pool, cache, admission, breaker) starts answering new requests
// immediately, while the old generation finishes its in-flight requests
// and closes when the last one releases. Zero requests are dropped. The
// degraded-mode snapshot is re-derived via Config.FallbackFactory when
// set, else the static Config.Fallback keeps serving.
func (s *Server) SwapRecommender(rec *core.Recommender) {
	fb := s.cfg.Fallback
	if s.cfg.FallbackFactory != nil {
		fb = s.cfg.FallbackFactory(rec)
	}
	nh := newEngineHandle(s.buildEngine(rec, fb))
	old := s.cur.Swap(nh)
	s.swaps.Add(1)
	// Drop the owner reference; the old engine closes as soon as its last
	// in-flight request finishes (immediately when idle).
	old.release()
}

// Swaps reports how many model hot swaps the server has performed.
func (s *Server) Swaps() uint64 { return s.swaps.Load() }

// StartDraining flips /v1/healthz to "draining" (503) so load balancers
// stop routing here while in-flight requests finish. Recommend endpoints
// keep answering until Close.
func (s *Server) StartDraining() { s.draining.Store(true) }

// clientKey identifies the caller for rate limiting: the X-Client-ID
// header when present (multi-tenant platforms forward a stable tenant
// id), else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// allow applies the per-client rate limit, writing the 429 itself when
// the client is over budget. Rate limiting never degrades — a greedy
// client gets backpressure, not free popular answers.
func (s *Server) allow(w http.ResponseWriter, r *http.Request) bool {
	return s.allowN(w, r, 1)
}

// allowN is the weighted form: a batch of n items costs n tokens, so
// /v1/recommend/batch cannot multiply a client's configured rate by the
// batch size. Batches wider than the configured Burst can never pass —
// deployments serving batch traffic should set Burst >= MaxBatch.
func (s *Server) allowN(w http.ResponseWriter, r *http.Request, n int) bool {
	ok, retryAfter := s.limiter.AllowN(clientKey(r), n)
	if ok {
		return true
	}
	s.rateLimited.Add(1)
	setRetryAfter(w, retryAfter)
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "rate limit exceeded"})
	return false
}

// setRetryAfter renders the standard backoff hint header, rounding up to
// whole seconds (the header's unit) with a minimum of 1.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// ServeHTTP implements http.Handler with panic recovery: a panicking
// handler yields a 500 JSON error instead of killing the process.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			// The conventional way to abort a response; not a defect.
			panic(p)
		}
		s.panics.Add(1)
		log.Printf("server: panic in %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
		// Best effort: if the handler already wrote headers this is a
		// no-op body append, but the connection still dies cleanly.
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "internal server error"})
	}()
	if s.cfg.ReplicaID != "" {
		w.Header().Set("X-Replica-ID", s.cfg.ReplicaID)
	}
	s.mux.ServeHTTP(w, r)
}

// Panics reports how many handler panics have been recovered.
func (s *Server) Panics() int64 { return s.panics.Load() }

// Close drains the worker pool of the current engine generation. The
// server must not be used afterwards.
func (s *Server) Close() {
	s.closeOnce.Do(func() { s.cur.Load().release() })
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	eng := s.engine()
	rec := eng.Rec()
	ov := eng.OverloadStats()
	// Health ladder: draining (503, stop routing here) beats degraded
	// (200, still answering but the model path is broken) beats ok.
	status, code := "ok", http.StatusOK
	if ov.Breaker.State == overload.Open.String() {
		status = "degraded"
	}
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
		// Tell probers (the gateway health ladder, load balancers) when to
		// look again, instead of letting them tight-loop a dying process.
		setRetryAfter(w, DefaultDrainRetryAfter)
	}
	body := map[string]any{
		"status":  status,
		"vocab":   rec.Vocab.Size(),
		"classes": len(rec.Classifier.Classes),
		"arch":    string(rec.Model.Config().Arch),
		"cache":   eng.CacheStats(),
		"pool":    eng.PoolStats(),
		"batcher": eng.BatcherStats(),
		"panics":  s.panics.Load(),
		"swaps":   s.swaps.Load(),
		"overload": map[string]any{
			"engine":       ov,
			"rate":         s.limiter.Stats(),
			"rate_limited": s.rateLimited.Load(),
		},
	}
	if s.cfg.ReplicaID != "" {
		body["replica"] = s.cfg.ReplicaID
	}
	writeJSON(w, code, body)
}

// handlePush is the receiver side of the replica artifact-push protocol:
// it accepts the three checksummed artifact envelopes, validates and
// decodes them entirely in memory (a truncated or bit-flipped envelope
// rejects the whole set — the old model keeps serving), persists them
// atomically when a model directory is configured, and hot-swaps the
// engine with zero dropped requests.
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var payload modeldir.PushPayload
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxPushBytes)
	if err := json.NewDecoder(r.Body).Decode(&payload); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("push exceeds %d bytes", tooLarge.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON: " + err.Error()})
		return
	}
	rec, err := modeldir.DecodeArtifacts(payload.Artifacts, 0)
	if err != nil {
		// Corrupt, truncated, or incomplete artifact set: reject atomically,
		// old model untouched. 422 mirrors the bad-query contract.
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	if s.cfg.ModelDir != "" {
		if err := modeldir.InstallRaw(s.cfg.ModelDir, payload.Artifacts); err != nil {
			// Disk and memory must not diverge: a persist failure keeps the
			// old model serving rather than swapping to a model a restart
			// would lose.
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
	}
	s.SwapRecommender(rec)
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "swapped",
		"swaps":   s.swaps.Load(),
		"classes": len(rec.Classifier.Classes),
		"vocab":   rec.Vocab.Size(),
		"arch":    string(rec.Model.Config().Arch),
	})
}

// decodeBody JSON-decodes a size-limited request body into v, translating
// failure modes to HTTP statuses. It reports whether decoding succeeded;
// on failure the error response has already been written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON: " + err.Error()})
		return false
	}
	return true
}

// toPoolRequest validates and converts one API request, clamping N into
// [1, 25] (default 3).
func toPoolRequest(req RecommendRequest) (servepool.Request, error) {
	if req.SQL == "" {
		return servepool.Request{}, errors.New("sql is required")
	}
	n := req.N
	if n <= 0 {
		n = 3
	}
	if n > 25 {
		n = 25
	}
	opts := core.DefaultNFragmentsOptions()
	switch req.Strategy {
	case "", "beam":
	case "diverse-beam":
		opts.Strategy = core.StrategyDiverseBeam
	case "sampling":
		opts.Strategy = core.StrategySampling
	default:
		return servepool.Request{}, fmt.Errorf("unknown strategy %q", req.Strategy)
	}
	return servepool.Request{SQL: req.SQL, PrevSQL: req.PrevSQL, N: n, Opts: opts}, nil
}

// toResponse renders an engine result in the stable wire shape: fragment
// kinds appear in paper order and empty kinds are omitted.
func toResponse(res *servepool.Result) RecommendResponse {
	resp := RecommendResponse{Templates: res.Templates, Fragments: map[string][]string{}, Degraded: res.Degraded}
	for _, kind := range sqlast.FragmentKinds {
		if len(res.Fragments[kind]) > 0 {
			resp.Fragments[kind.String()] = res.Fragments[kind]
		}
	}
	return resp
}

// errStatus maps engine errors to HTTP statuses.
func errStatus(err error) int {
	var bad *servepool.BadQueryError
	switch {
	case errors.As(err, &bad):
		return http.StatusUnprocessableEntity
	case errors.Is(err, overload.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, servepool.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeError renders an engine error, attaching the Retry-After backoff
// hint that overload rejections carry.
func writeError(w http.ResponseWriter, err error) {
	var ov *overload.Error
	if errors.As(err, &ov) && ov.RetryAfter > 0 {
		setRetryAfter(w, ov.RetryAfter)
	}
	writeJSON(w, errStatus(err), errorResponse{Error: errMessage(err)})
}

// errMessage prefixes parse failures the way the seed API did.
func errMessage(err error) string {
	var bad *servepool.BadQueryError
	if errors.As(err, &bad) {
		return "cannot parse query: " + bad.Err.Error()
	}
	return err.Error()
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	if !s.allow(w, r) {
		return
	}
	var req RecommendRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	preq, err := toPoolRequest(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	// Pin the engine generation for the request's lifetime: a concurrent
	// hot swap retires this generation only after the release below.
	h := s.acquire()
	defer h.release()
	res, err := h.eng.Recommend(ctx, preq)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toResponse(res))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var batch BatchRequest
	if !s.decodeBody(w, r, &batch) {
		return
	}
	if len(batch.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "requests is required"})
		return
	}
	if len(batch.Requests) > s.cfg.MaxBatch {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("batch of %d exceeds limit %d", len(batch.Requests), s.cfg.MaxBatch)})
		return
	}
	// The limit check runs after decoding because the charge is the batch
	// width: n items cost n tokens, the same as n single calls.
	if !s.allowN(w, r, len(batch.Requests)) {
		return
	}
	// Invalid individual requests fail their slot, not the whole batch;
	// the shared timeout covers the batch as a unit.
	preqs := make([]servepool.Request, len(batch.Requests))
	precheck := make([]error, len(batch.Requests))
	for i, req := range batch.Requests {
		preqs[i], precheck[i] = toPoolRequest(req)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	h := s.acquire()
	defer h.release()
	items := h.eng.RecommendBatch(ctx, preqs)
	out := BatchResponse{Results: make([]BatchItem, len(items))}
	for i, item := range items {
		switch {
		case precheck[i] != nil:
			out.Results[i] = BatchItem{Error: precheck[i].Error()}
		case item.Err != nil:
			out.Results[i] = BatchItem{Error: errMessage(item.Err)}
		default:
			resp := toResponse(item.Result)
			out.Results[i] = BatchItem{Templates: resp.Templates, Fragments: resp.Fragments, Degraded: resp.Degraded}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// writeJSON encodes v before writing any headers so an encode failure can
// still produce a well-formed 500 instead of a silently truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		// errorResponse of a plain string cannot itself fail to encode.
		fallback, _ := json.Marshal(errorResponse{Error: "encode response: " + err.Error()})
		w.Write(append(fallback, '\n'))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}
