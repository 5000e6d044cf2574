// Package trace is the benchmark's traced run: it replays a mix's seeded
// stream at the same rates against in-process servers built with the
// serving configuration the binaries use, and times each layer from
// benchmark-owned wrappers around the calls into it — an http.Handler
// around server.Server and gateway.Gateway, an http.RoundTripper as the
// gateway's transport and a servepool.Predictor that makes the default
// model-path calls. Isolated per-call timings on the same inputs follow
// the replay. This is the only part of the benchmark that wraps internal
// APIs; nothing inside the program changes.
package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/modeldir"
	"repro/internal/servepool"
	"repro/internal/server"
	"repro/perfbench/loadgen"
	"repro/perfbench/mix"
	"repro/perfbench/stats"
	"repro/perfbench/tally"
)

// Input is what the traced run replays.
type Input struct {
	Mix *mix.Mix
	// ModelDir is the model directory the untraced run served.
	ModelDir string
	// Conns bounds the generator's connections, as in the untraced run.
	Conns int
	// Grace is how long after the last scheduled send unsent calls wait.
	Grace time.Duration
	// Addrs are the loopback addresses the untraced run's replicas and
	// gateway listened on, in that order. Reusing them rebuilds the same
	// gateway ring.
	Addrs []string
}

// Layer is one per-layer metric.
type Layer struct {
	Name, Unit string
	Value      float64
	// Note says how the value was measured, or why it is absent.
	Note string
}

// Output is the traced run's result.
type Output struct {
	Layers []Layer
	// LatP50Ms is the traced replay's median full-quality latency, the
	// numerator of the tracing overhead.
	LatP50Ms float64
}

// replica is one in-process qrec-serve equivalent.
type replica struct {
	srv  *server.Server
	url  string
	stop func()
}

// softTimeout and fallbackDepth are qrec-serve's defaults.
const (
	softTimeout   = 5 * time.Second
	fallbackDepth = 25
)

// serveConfig mirrors how qrec-serve resolves its default flags.
func serveConfig(rec *core.Recommender, pred servepool.Predictor, id string, push bool, modelDir string) server.Config {
	w := runtime.GOMAXPROCS(0)
	q := w
	cfg := server.Config{
		MaxInFlight:  2 * (w + q),
		SoftTimeout:  softTimeout,
		BreakerRatio: 0.5,
		Fallback:     servepool.FallbackFromRecommender(rec, fallbackDepth),
		FallbackFactory: func(r *core.Recommender) *servepool.Fallback {
			return servepool.FallbackFromRecommender(r, fallbackDepth)
		},
		Predictor: pred,
		ModelDir:  modelDir,
	}
	if push {
		cfg.ReplicaID, cfg.EnablePush = id, true
	}
	return cfg
}

// listen serves h on addr (a free loopback port when empty) until the
// returned stop is called.
func listen(addr string, h http.Handler) (string, func(), error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // a drain timeout leaves only idle connections
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// health is the part of a replica's /v1/healthz the run reads.
type health struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Overload struct {
		Engine struct {
			Admission struct {
				ShedLoad  uint64 `json:"shed_load"`
				ShedQueue uint64 `json:"shed_queue"`
			} `json:"admission"`
		} `json:"engine"`
	} `json:"overload"`
}

func (h health) lookups() uint64 { return h.Cache.Hits + h.Cache.Misses }
func (h health) sheds() uint64 {
	return h.Overload.Engine.Admission.ShedLoad + h.Overload.Engine.Admission.ShedQueue
}

// healthOf sums the counters of every replica.
func healthOf(reps []*replica) (health, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	var sum health
	for _, r := range reps {
		resp, err := client.Get(r.url + "/v1/healthz")
		if err != nil {
			return sum, err
		}
		var h health
		err = json.NewDecoder(resp.Body).Decode(&h)
		_ = resp.Body.Close() // read-only
		if err != nil {
			return sum, fmt.Errorf("healthz: %w", err)
		}
		sum.Cache.Hits += h.Cache.Hits
		sum.Cache.Misses += h.Cache.Misses
		sum.Overload.Engine.Admission.ShedLoad += h.Overload.Engine.Admission.ShedLoad
		sum.Overload.Engine.Admission.ShedQueue += h.Overload.Engine.Admission.ShedQueue
	}
	return sum, nil
}

// tagger labels the generator's requests with prefix+index.
func tagger(prefix string) func(int, http.Header) {
	return func(i int, h http.Header) { h.Set(benchHeader, prefix+strconv.Itoa(i)) }
}

// Run replays in.Mix traced and returns the per-layer metrics.
func Run(ctx context.Context, in Input) (*Output, error) {
	m := in.Mix
	rec, err := modeldir.Load(in.ModelDir, 0)
	if err != nil {
		return nil, err
	}
	r := NewRecorder()
	pred := &predictor{model: rec, rec: r}
	var reps []*replica
	defer func() {
		for _, rp := range reps {
			rp.stop()
			rp.srv.Close()
		}
	}()
	for i := 0; i < m.Replicas; i++ {
		srv := server.NewWithConfig(rec, serveConfig(rec, pred, "r"+strconv.Itoa(i), m.Gateway, in.ModelDir))
		url, stop, err := listen(addrAt(in.Addrs, i), &handler{name: "server", rec: r, next: srv})
		if err != nil {
			srv.Close()
			return nil, err
		}
		reps = append(reps, &replica{srv: srv, url: url, stop: stop})
	}
	front := reps[0].url
	var gw *gateway.Gateway
	if m.Gateway {
		var stop func()
		gw, front, stop, err = startGateway(ctx, r, reps, addrAt(in.Addrs, m.Replicas))
		if err != nil {
			return nil, err
		}
		defer stop()
	}

	warm := (&loadgen.Runner{BaseURL: front, Conns: in.Conns, Timeout: time.Minute, Header: tagger("w")}).
		Run(ctx, m.Warmup, time.Minute)
	for i, o := range warm {
		if o.Err != nil || o.Status != http.StatusOK {
			return nil, fmt.Errorf("traced warm-up call %d: status %d: %v", i, o.Status, o.Err)
		}
	}
	h0, err := healthOf(reps)
	if err != nil {
		return nil, err
	}
	timedFrom := r.Now()
	pushed := make(chan pushResult, 1)
	go func() { pushed <- push(ctx, gw, m, reps, in.ModelDir) }()
	outs := (&loadgen.Runner{BaseURL: front, Conns: in.Conns, Timeout: time.Minute, Header: tagger("")}).
		Run(ctx, m.Timed, in.Grace)
	timedTo := r.Now()
	pr := <-pushed
	if pr.err != nil {
		return nil, pr.err
	}
	h1, err := healthOf(reps)
	if err != nil {
		return nil, err
	}
	lookups := h1.lookups() - h0.lookups()
	sheds := h1.sheds() - h0.sheds()
	if pr.done {
		// The push rebuilt every engine, restarting its counters.
		lookups = pr.before.lookups() - h0.lookups() + h1.lookups()
		sheds = pr.before.sheds() - h0.sheds() + h1.sheds()
	}
	rep := tally.Tally(m.Timed, outs, m.Limit)

	iso, err := isolate(rec, m, outs)
	if err != nil {
		return nil, err
	}
	out := &Output{LatP50Ms: rep.P50}
	add := func(name, unit string, v float64, note string) {
		out.Layers = append(out.Layers, Layer{Name: name, Unit: unit, Value: v, Note: note})
	}

	outer := "server"
	if m.Gateway {
		outer = "gateway"
	}
	// The client's round trip minus the outermost handler span.
	spans := map[string]Span{}
	for _, s := range r.Roots(outer) {
		spans[s.Tag] = s
	}
	var httpSelf []float64
	for i, o := range outs {
		if s, ok := spans[strconv.Itoa(i)]; ok && o.Err == nil {
			httpSelf = append(httpSelf, stats.Ms(o.Done-o.Began-s.Len()))
		}
	}
	add("http.self_ms", "ms", stats.Median(httpSelf), fmt.Sprintf("client round trip minus %s span, %d calls", outer, len(httpSelf)))

	var gws []Span
	gwNote := "timed window"
	replicas := outs
	if m.Gateway {
		gws = timed(r.Roots("gateway"), timedFrom, timedTo)
	} else {
		// No gateway in this topology: time one in front of the warmed
		// replica on calls the replica now answers from its cache.
		gws, replicas, err = isolatedGateway(ctx, r, reps, m, outs, rep.Full, in.Conns)
		if err != nil {
			return nil, err
		}
		gwNote = fmt.Sprintf("isolated: %d cached calls through an in-process gateway", len(gws))
	}
	var gwSelf []float64
	attempts := 0
	for i := range gws {
		gwSelf = append(gwSelf, stats.Ms(Self(gws[i].Interval, gws[i].childIntervals("attempt"))))
		attempts += len(gws[i].childIntervals("attempt"))
	}
	add("gateway.self_ms", "ms", stats.Median(gwSelf), "gateway span minus the union of its upstream attempts; "+gwNote)
	add("gateway.attempts_per_call", "count", ratio(attempts, len(gws)), fmt.Sprintf("%d attempts over %d proxied calls; %s", attempts, len(gws), gwNote))
	add("gateway.replica_skew", "ratio", skew(replicas, m.Replicas), "largest replica's share of calls over the mean share, from X-Replica-ID")

	srvSpans := timed(r.Roots("server"), timedFrom, timedTo)
	var srvSelf []float64
	for i := range srvSpans {
		srvSelf = append(srvSelf, stats.Ms(Self(srvSpans[i].Interval, modelIntervals(&srvSpans[i]))))
	}
	add("server.self_ms", "ms", stats.Median(srvSelf), fmt.Sprintf("ServeHTTP span minus the union of its model spans, %d calls", len(srvSelf)))
	add("server.json_us", "us", iso.jsonUs, "request decode plus response encode, isolated")
	add("tokenizer.us", "us", iso.tokenizeUs, "tokenizer.Tokenize per query, isolated")

	modelCalls := len(timed(r.Roots("classify"), timedFrom, timedTo)) + len(timed(r.Roots("decode"), timedFrom, timedTo))
	hit := 0.0
	if lookups > 0 {
		hit = 1 - float64(modelCalls)/float64(lookups)
	}
	add("reccache.hit_share", "fraction", hit, fmt.Sprintf("1 - %d model calls / %d cache lookups", modelCalls, lookups))

	// Pool wait: handler start to the first model span, less the
	// tokenizer time spent before the request reaches the pool. Warm-up
	// calls count too: they are where a cached mix still runs the model.
	var wait []float64
	for _, s := range r.Roots("server") {
		ivs := modelIntervals(&s)
		if len(ivs) == 0 {
			continue
		}
		first := ivs[0].Start
		for _, iv := range ivs {
			first = min(first, iv.Start)
		}
		wait = append(wait, max(0, stats.Ms(first-s.Start)-iso.tokenizeUs/1000))
	}
	ws := stats.Sorted(wait)
	wt := stats.SelectTail(ws)
	add("servepool.wait_ms", "ms", stats.Percentile(ws, 0.5), fmt.Sprintf("p50 of %d calls that ran the model", len(ws)))
	add("servepool.wait_tail_ms", "ms", wt.Value, fmt.Sprintf("%s of %d calls, %d beyond", wt.Label(), wt.N, wt.Beyond))
	add("overload.shed_share", "fraction", float64(sheds)/float64(max(rep.Items, 1)), fmt.Sprintf("%d admission sheds (healthz deltas) over %d items", sheds, rep.Items))

	cls := durationsMs(r.Roots("classify"))
	dec := stats.Sorted(durationsMs(r.Roots("decode")))
	dt := stats.SelectTail(dec)
	add("classify.ms", "ms", stats.Median(cls), fmt.Sprintf("template-predictor span, %d calls", len(cls)))
	add("decode.ms", "ms", stats.Percentile(dec, 0.5), fmt.Sprintf("fragment-predictor span, %d calls", len(dec)))
	add("decode.tail_ms", "ms", dt.Value, fmt.Sprintf("%s of %d calls, %d beyond", dt.Label(), dt.N, dt.Beyond))
	add("decode.tokens_per_call", "count", iso.tokensPerCall, fmt.Sprintf("decoder steps over all beam hypotheses, mean of %d isolated beam calls", iso.inputs))
	add("seq2seq.encode_ms", "ms", iso.encodeMs, "Model.Encode, isolated")
	add("decode.beam_ms", "ms", iso.beamMs, "decode.Beam, width 5, isolated")
	add("core.aggregate_us", "us", iso.aggregateUs, "core.AggregateFragments, isolated")
	add("tensor.gflops", "GFLOP/s", iso.gflops, iso.flopsNote)
	return out, nil
}

// addrAt returns addrs[i], or "" when there is none.
func addrAt(addrs []string, i int) string {
	if i < len(addrs) {
		return addrs[i]
	}
	return ""
}

// timed keeps the spans that started in [from, to).
func timed(spans []Span, from, to time.Duration) []Span {
	var out []Span
	for _, s := range spans {
		if s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

func modelIntervals(s *Span) []Interval {
	return append(s.childIntervals("classify"), s.childIntervals("decode")...)
}

func durationsMs(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = stats.Ms(s.Len())
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// skew is the largest replica's share of answered calls divided by the
// mean share over n replicas.
func skew(outs []loadgen.Outcome, n int) float64 {
	counts := map[string]int{}
	total := 0
	for _, o := range outs {
		if o.Err == nil && o.Status == http.StatusOK {
			counts[o.Replica]++
			total++
		}
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if total == 0 {
		return 0
	}
	return float64(top) / (float64(total) / float64(n))
}

// startGateway starts an in-process gateway with the defaults qrec-gw
// uses, its transport and handler wrapped in spans.
func startGateway(ctx context.Context, r *Recorder, reps []*replica, addr string) (*gateway.Gateway, string, func(), error) {
	urls := make([]string, len(reps))
	for i, rp := range reps {
		urls[i] = rp.url
	}
	fl := &flights{open: map[string][]*node{}}
	gw, err := gateway.New(gateway.Config{
		Replicas:  urls,
		Seed:      1,
		Clock:     time.Now,
		Transport: &roundTripper{rec: r, next: http.DefaultTransport, flights: fl},
	})
	if err != nil {
		return nil, "", nil, err
	}
	gctx, cancel := context.WithCancel(ctx)
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		gw.Run(gctx)
	}()
	url, stop, err := listen(addr, &handler{name: "gateway", rec: r, next: gw, flights: fl})
	if err != nil {
		cancel()
		<-probed
		return nil, "", nil, err
	}
	return gw, url, func() {
		stop()
		cancel()
		<-probed
	}, nil
}

// pushResult is the outcome of the mid-run model push.
type pushResult struct {
	done   bool
	before health // replica counters just before the push
	err    error
}

// push waits until the mix's push offset and pushes the model directory
// through the gateway, as `qrec-gw -push` does.
func push(ctx context.Context, gw *gateway.Gateway, m *mix.Mix, reps []*replica, dir string) pushResult {
	if m.PushAt <= 0 || gw == nil {
		return pushResult{}
	}
	select {
	case <-time.After(m.PushAt):
	case <-ctx.Done():
		return pushResult{err: ctx.Err()}
	}
	before, err := healthOf(reps)
	if err != nil {
		return pushResult{err: err}
	}
	res, err := gw.PushModelDir(ctx, dir)
	if err != nil {
		return pushResult{err: err}
	}
	var errs []string
	for rep, e := range res {
		if e != nil {
			errs = append(errs, rep+": "+e.Error())
		}
	}
	if len(errs) > 0 {
		return pushResult{err: errors.New("model push: " + strings.Join(errs, "; "))}
	}
	return pushResult{done: true, before: before}
}

// isolatedGateway replays up to 200 of the timed calls that were answered
// at full quality — now cache hits — through an in-process gateway in
// front of the replica, returning the gateway spans and the outcomes.
func isolatedGateway(ctx context.Context, r *Recorder, reps []*replica, m *mix.Mix, outs []loadgen.Outcome, full []bool, conns int) ([]Span, []loadgen.Outcome, error) {
	var reqs []loadgen.Request
	for i, req := range m.Timed {
		if full[i] && outs[i].Err == nil && len(reqs) < 200 {
			req.At = 0
			reqs = append(reqs, req)
		}
	}
	_, url, stop, err := startGateway(ctx, r, reps, "")
	if err != nil {
		return nil, nil, err
	}
	defer stop()
	from := r.Now()
	gouts := (&loadgen.Runner{BaseURL: url, Conns: conns, Timeout: time.Minute, Header: tagger("g")}).Run(ctx, reqs, time.Minute)
	to := r.Now()
	for i, o := range gouts {
		if o.Err != nil || o.Status != http.StatusOK {
			return nil, nil, fmt.Errorf("isolated gateway call %d: status %d: %v", i, o.Status, o.Err)
		}
	}
	return timed(r.Roots("gateway"), from, to), gouts, nil
}
