// Package loadgen drives an HTTP recommend endpoint open-loop: requests
// leave on a precomputed schedule whether or not earlier ones have
// answered, over a bounded set of connections. Latency is charged from
// each request's scheduled send time, so time spent waiting for a busy
// connection (coordinated omission) counts against the system.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Endpoint paths of the recommend API.
const (
	PathSingle = "/v1/recommend"
	PathBatch  = "/v1/recommend/batch"
)

// Item is one recommendation query, in the wire shape of the recommend
// API's request object.
type Item struct {
	SQL      string `json:"sql"`
	PrevSQL  string `json:"prev_sql,omitempty"`
	N        int    `json:"n,omitempty"`
	Strategy string `json:"strategy,omitempty"`
}

// Request is one scheduled HTTP call: a single recommend or a batch.
type Request struct {
	// At is the scheduled send time as an offset from the run start.
	At time.Duration
	// Path is PathSingle or PathBatch.
	Path string
	// ClientID is sent as X-Client-ID when non-empty.
	ClientID string
	// Items are the queries the call carries (one for PathSingle).
	Items []Item
	// Body is the encoded request body.
	Body []byte
}

// Single builds a /v1/recommend call.
func Single(at time.Duration, clientID string, it Item) Request {
	body, err := json.Marshal(it)
	if err != nil {
		panic(err) // Item holds only strings and ints
	}
	return Request{At: at, Path: PathSingle, ClientID: clientID, Items: []Item{it}, Body: body}
}

// Batch builds a /v1/recommend/batch call carrying items.
func Batch(at time.Duration, clientID string, items []Item) Request {
	body, err := json.Marshal(struct {
		Requests []Item `json:"requests"`
	}{items})
	if err != nil {
		panic(err) // Item holds only strings and ints
	}
	return Request{At: at, Path: PathBatch, ClientID: clientID, Items: items, Body: body}
}

// Poisson returns the arrival offsets of a Poisson process at rate per
// second over [0, d), drawn from rng.
func Poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// ErrNotSent marks a request the run ended before it could be sent.
var ErrNotSent = errors.New("loadgen: not sent before the run ended")

// Outcome is what one scheduled request observed.
type Outcome struct {
	// Sent is when the generator released the request (offset from the
	// run start); Sent-At is the generator's own lateness.
	Sent time.Duration
	// Began is when a connection took the request, so Done-Began is the
	// client-side round trip.
	Began time.Duration
	// Done is when the last response byte arrived (offset from start).
	Done time.Duration
	// Status is the HTTP status, 0 on a transport error or when unsent.
	Status int
	// Body is the response body.
	Body []byte
	// Replica is the X-Replica-ID response header.
	Replica string
	// Err is a transport error or ErrNotSent.
	Err error
}

// Latency is the time from the scheduled send to the last response byte.
func (o Outcome) Latency(r Request) time.Duration { return o.Done - r.At }

// Runner sends a schedule to one base URL.
type Runner struct {
	// BaseURL is the target, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Conns bounds the concurrent HTTP connections (and so the calls in
	// flight).
	Conns int
	// Timeout bounds one call.
	Timeout time.Duration
	// Header, when set, adds headers to the i-th request (the traced run
	// tags requests with their index).
	Header func(i int, h http.Header)
}

// Run sends reqs open-loop starting now and returns one outcome per
// request, in order. A request still unsent when grace has passed after
// the last scheduled send is marked ErrNotSent. Run returns once every
// call it started has finished.
func (r *Runner) Run(ctx context.Context, reqs []Request, grace time.Duration) []Outcome {
	tr := &http.Transport{
		MaxConnsPerHost:     r.Conns,
		MaxIdleConnsPerHost: r.Conns,
		DisableCompression:  true,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: r.Timeout}

	out := make([]Outcome, len(reqs))
	var last time.Duration
	if len(reqs) > 0 {
		last = reqs[len(reqs)-1].At
	}
	start := time.Now()
	cutoff := last + grace
	// Buffered to the number of sends: the dispatcher never blocks, so
	// its lateness measures only the generator, not the connections.
	jobs := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < r.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil || time.Since(start) > cutoff {
					out[i].Err = ErrNotSent
					continue
				}
				r.do(ctx, client, start, i, reqs[i], &out[i])
			}
		}()
	}
	// The dispatcher runs on its own goroutine so it can own an OS thread
	// for precise sleeps.
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		sleep, release := preciseSleeper()
		defer release()
		for i := range reqs {
			if wait := reqs[i].At - time.Since(start); wait > 0 && ctx.Err() == nil {
				sleep(wait)
			}
			out[i].Sent = time.Since(start)
			jobs <- i
		}
	}()
	<-dispatched
	close(jobs)
	wg.Wait()
	return out
}

func (r *Runner) do(ctx context.Context, client *http.Client, start time.Time, i int, req Request, o *Outcome) {
	o.Began = time.Since(start)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.BaseURL+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		o.Err = err
		o.Done = time.Since(start)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.ClientID != "" {
		hreq.Header.Set("X-Client-ID", req.ClientID)
	}
	if r.Header != nil {
		r.Header(i, hreq.Header)
	}
	resp, err := client.Do(hreq)
	if err != nil {
		o.Err = err
		o.Done = time.Since(start)
		return
	}
	o.Body, err = io.ReadAll(resp.Body)
	o.Done = time.Since(start)
	_ = resp.Body.Close() // fully read; nothing left to report
	if err != nil {
		o.Err = fmt.Errorf("read body: %w", err)
		return
	}
	o.Status = resp.StatusCode
	o.Replica = resp.Header.Get("X-Replica-ID")
}
