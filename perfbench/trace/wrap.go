package trace

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/sqlast"
)

// benchHeader tags a generator request with its index so the outermost
// handler span can be matched with the client's round trip.
const benchHeader = "X-Bench-Req"

type ctxKey struct{}

// spanOf returns the open handler span carried by ctx, or nil.
func spanOf(ctx context.Context) *node {
	n, _ := ctx.Value(ctxKey{}).(*node)
	return n
}

// handler wraps a server or gateway in a root span per request and
// carries the span in the request context, so the predictor below can
// attach model spans to it.
type handler struct {
	name string
	rec  *Recorder
	next http.Handler
	// flights, set on the gateway, registers each proxied body so the
	// upstream attempts the gateway makes for it attach to its span.
	flights *flights
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := &node{span: Span{Name: h.name, Tag: r.Header.Get(benchHeader)}}
	n.span.Start = h.rec.Now()
	if h.flights != nil && strings.HasPrefix(r.URL.Path, "/v1/recommend") {
		body, err := io.ReadAll(r.Body)
		if err == nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
			key := flightKey(r.Header.Get("X-Client-ID"), r.URL.Path, body)
			h.flights.register(key, n)
			defer h.flights.close(key, n)
		}
	}
	h.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, n)))
	n.mu.Lock()
	n.span.End = h.rec.Now()
	n.mu.Unlock()
	h.rec.finish(n)
}

// flights maps a proxied request (client, path, body — the gateway's own
// collapse key) to the gateway spans waiting on it.
type flights struct {
	mu   sync.Mutex
	open map[string][]*node
}

func flightKey(client, path string, body []byte) string {
	return client + "\x00" + path + "\x00" + string(body)
}

func (f *flights) register(key string, n *node) {
	f.mu.Lock()
	f.open[key] = append(f.open[key], n)
	f.mu.Unlock()
}

func (f *flights) close(key string, n *node) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ns := f.open[key]
	for i := range ns {
		if ns[i] == n {
			ns = append(ns[:i], ns[i+1:]...)
			break
		}
	}
	if len(ns) == 0 {
		delete(f.open, key)
	} else {
		f.open[key] = ns
	}
}

func (f *flights) find(key string) *node {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ns := f.open[key]; len(ns) > 0 {
		return ns[0]
	}
	return nil
}

// roundTripper is the gateway's upstream transport: each recommend
// attempt becomes a child span of the gateway span that made it, ending
// when the gateway closes the response body.
type roundTripper struct {
	rec     *Recorder
	next    http.RoundTripper
	flights *flights
}

func (t *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, "/v1/recommend") || req.GetBody == nil {
		return t.next.RoundTrip(req)
	}
	var parent *node
	if rc, err := req.GetBody(); err == nil {
		body, err := io.ReadAll(rc)
		if err == nil {
			parent = t.flights.find(flightKey(req.Header.Get("X-Client-ID"), req.URL.Path, body))
		}
	}
	start := t.rec.Now()
	resp, err := t.next.RoundTrip(req)
	if parent == nil {
		return resp, err
	}
	span := Span{Name: "attempt", Interval: Interval{Start: start}, Tag: req.URL.Host}
	if err != nil {
		span.End = t.rec.Now()
		parent.add(span)
		return resp, err
	}
	resp.Body = &attemptBody{ReadCloser: resp.Body, done: func() {
		span.End = t.rec.Now()
		parent.add(span)
	}}
	return resp, nil
}

// attemptBody ends an attempt span when the gateway closes the body.
type attemptBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *attemptBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// predictor is the model path the untraced server uses by default — the
// same core.Recommender calls — with a span around each half. It keeps
// serving the recommender it was built with across a hot swap; the
// benchmark pushes the same artifacts, so answers do not change.
type predictor struct {
	model *core.Recommender
	rec   *Recorder
}

func (p *predictor) span(ctx context.Context, name string, start Interval) {
	start.End = p.rec.Now()
	s := Span{Name: name, Interval: start}
	if n := spanOf(ctx); n != nil {
		n.add(s)
	}
	p.rec.finish(&node{span: s})
}

func (p *predictor) Templates(ctx context.Context, prevToks, curToks []string, n int) ([]string, error) {
	iv := Interval{Start: p.rec.Now()}
	out := p.model.Classifier.PredictTopN(core.EncodeContext(p.model.Vocab, prevToks, curToks), n)
	p.span(ctx, "classify", iv)
	return out, nil
}

func (p *predictor) Fragments(ctx context.Context, curToks []string, n int, opts core.NFragmentsOptions) (map[sqlast.FragmentKind][]string, error) {
	iv := Interval{Start: p.rec.Now()}
	out := p.model.NFragmentsFromTokens(p.model.Vocab.Encode(curToks, true), n, opts)
	p.span(ctx, "decode", iv)
	return out, nil
}
