// Command qrec-serve exposes a trained model directory over HTTP (the
// deployment shape a database-as-a-service platform would embed), running
// requests on the concurrent serving core: a bounded prediction worker
// pool plus a sharded LRU inference cache. SIGINT/SIGTERM shut down
// gracefully: the listener closes, in-flight recommendations get up to
// -drain to finish, and the process exits 0.
//
// The serving stack is overload-resilient: admission control sheds
// excess load early, a per-client token bucket (-rate/-burst) rejects
// greedy callers with 429 + Retry-After, a circuit breaker guards the
// model path, and shed or over-budget requests answer from a pre-warmed
// popularity fallback flagged "degraded":true (-degrade, -soft-timeout).
//
// Usage:
//
//	qrec-serve -model model/ -addr :8080 -workers 8 -cache-size 4096
//	qrec-serve -model model/ -rate 50 -burst 100 -soft-timeout 2s -max-inflight 64
//	curl -s localhost:8080/v1/recommend -d '{"sql":"SELECT ra FROM PhotoObj"}'
//	curl -s localhost:8080/v1/recommend/batch \
//	  -d '{"requests":[{"sql":"SELECT ra FROM PhotoObj"}]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the opt-in debug mux
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/modeldir"
	"repro/internal/servepool"
	"repro/internal/server"
)

func main() {
	modelDir := flag.String("model", "model", "model directory written by qrec-train")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "prediction worker pool size (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache-size", server.DefaultCacheSize,
		"inference cache entries (negative disables caching)")
	timeout := flag.Duration("timeout", server.DefaultTimeout, "per-request prediction timeout")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "request body size limit in bytes")
	maxBatch := flag.Int("max-batch", server.DefaultMaxBatch, "max requests per batch call")
	drain := flag.Duration("drain", server.DefaultDrainTimeout,
		"graceful-shutdown deadline for in-flight requests")
	maxQueue := flag.Int("max-queue", 0,
		"prediction task queue capacity (0 = workers); with admission on, a full queue sheds new requests")
	maxInFlight := flag.Int("max-inflight", 0,
		"admitted-request cap before shedding (0 = auto from workers+queue, -1 disables)")
	softTimeout := flag.Duration("soft-timeout", 5*time.Second,
		"per-request model budget before degrading to the popular fallback (0 disables)")
	batchSize := flag.Int("batch-size", 0,
		"micro-batch cap: coalesce up to this many concurrent requests per model pass, bit-identical results (0 or 1 = no coalescing wait)")
	batchWindow := flag.Duration("batch-window", 0,
		"how long the first request of a forming micro-batch waits for company (0 = 500µs default)")
	rate := flag.Float64("rate", 0, "per-client request rate limit in req/s (0 disables)")
	burst := flag.Float64("burst", 0, "rate-limiter burst size (0 = max(rate, 1))")
	breakerRatio := flag.Float64("breaker-ratio", 0.5,
		"model-path failure ratio that opens the circuit breaker (0 disables)")
	degrade := flag.Bool("degrade", true,
		"answer shed/over-budget requests from the popular fallback instead of 429/504")
	replicaID := flag.String("replica-id", "",
		"replica name echoed as X-Replica-ID on every response and in healthz (multi-replica topologies)")
	enablePush := flag.Bool("enable-push", false,
		"accept POST /v1/model/push hot swaps (validate, persist to -model, swap with zero dropped requests); admin networks only")
	pprofAddr := flag.String("pprof", "",
		"debug listener address for net/http/pprof, e.g. localhost:6060 (empty disables; do not expose publicly)")
	register := flag.String("register", "",
		"qrec-gw base URL to self-register with on startup (and deregister from on drain); requires -advertise")
	advertise := flag.String("advertise", "",
		"this replica's base URL as the gateway should dial it, e.g. http://10.0.0.7:8081")
	registerToken := flag.String("register-token", "",
		"bearer token for the gateway admin API (-register)")
	flag.Parse()

	if (*register == "") != (*advertise == "") {
		fmt.Fprintln(os.Stderr, "qrec-serve: -register and -advertise must be set together")
		os.Exit(2)
	}

	if *pprofAddr != "" {
		// Separate listener so profiling endpoints never share the public
		// serving port; DefaultServeMux carries the pprof registrations.
		go func() {
			fmt.Fprintf(os.Stderr, "qrec-serve: pprof debug listener on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "qrec-serve: pprof listener:", err)
			}
		}()
	}

	rec, err := modeldir.Load(*modelDir, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qrec-serve:", err)
		os.Exit(1)
	}
	// Resolve the admission cap: by default admit roughly what the pool can
	// hold (in-flight work + queue) times two, so shedding starts only when
	// requests would otherwise sit doomed behind the queue.
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	q := *maxQueue
	if q <= 0 {
		q = w
	}
	inFlight := *maxInFlight
	if inFlight == 0 {
		inFlight = 2 * (w + q)
	}
	if inFlight < 0 {
		inFlight = 0 // -1: admission control off
	}
	cfg := server.Config{
		CacheSize:    *cacheSize,
		Workers:      *workers,
		Timeout:      *timeout,
		MaxBodyBytes: *maxBody,
		MaxBatch:     *maxBatch,
		MaxQueue:     *maxQueue,
		MaxInFlight:  inFlight,
		SoftTimeout:  *softTimeout,
		BatchSize:    *batchSize,
		BatchWindow:  *batchWindow,
		Rate:         *rate,
		Burst:        *burst,
		BreakerRatio: *breakerRatio,
		ReplicaID:    *replicaID,
		EnablePush:   *enablePush,
		ModelDir:     *modelDir,
	}
	if *degrade {
		cfg.Fallback = servepool.FallbackFromRecommender(rec, 25)
		// After a hot swap, re-derive the degraded snapshot from the new
		// artifacts so fallback answers track the served model.
		cfg.FallbackFactory = func(r *core.Recommender) *servepool.Fallback {
			return servepool.FallbackFromRecommender(r, 25)
		}
	}
	srv := server.NewWithConfig(rec, cfg)
	fmt.Fprintf(os.Stderr,
		"serving %s model (%d classes) on %s (workers=%d cache=%d timeout=%s soft=%s inflight=%d batch=%d rate=%g degrade=%t replica=%q push=%t)\n",
		rec.Model.Config().Arch, len(rec.Classifier.Classes), *addr,
		*workers, *cacheSize, *timeout, *softTimeout, inFlight, *batchSize, *rate, *degrade, *replicaID, *enablePush)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	deregistered := make(chan struct{})
	if *register != "" {
		go selfRegister(ctx, *register, *advertise, *registerToken)
		go func() {
			// On shutdown, ask the gateway to drain us out of the ring
			// while our own listener drains in-flight requests; main waits
			// on this before exiting so the DELETE is not cut short.
			defer close(deregistered)
			<-ctx.Done()
			deregister(*register, *advertise, *registerToken)
		}()
	} else {
		close(deregistered)
	}
	if err := server.Run(ctx, *addr, srv, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "qrec-serve:", err)
		os.Exit(1)
	}
	<-deregistered
	fmt.Fprintln(os.Stderr, "qrec-serve: drained in-flight requests, shut down cleanly")
}

// selfRegister joins this replica to the gateway's ring through the
// authenticated admin API, retrying until the gateway accepts (its
// warm-up ladder probes our /v1/healthz, so registration completes only
// once we are actually serving). A 409 means we are already a member —
// a restart racing the gateway's own persisted view — which is success.
func selfRegister(ctx context.Context, gw, advertise, token string) {
	client := &http.Client{Timeout: 60 * time.Second}
	body := fmt.Sprintf(`{"url":%q}`, advertise)
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			gw+"/v1/admin/replicas", strings.NewReader(body))
		if err != nil {
			fmt.Fprintln(os.Stderr, "qrec-serve: register:", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := client.Do(req)
		if err == nil {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			_ = resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, http.StatusConflict:
				fmt.Fprintf(os.Stderr, "qrec-serve: registered %s with %s (status %d)\n",
					advertise, gw, resp.StatusCode)
				return
			default:
				fmt.Fprintf(os.Stderr, "qrec-serve: register %s: status %d: %s\n",
					gw, resp.StatusCode, strings.TrimSpace(string(msg)))
			}
		} else {
			fmt.Fprintln(os.Stderr, "qrec-serve: register:", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(2 * time.Second):
		}
	}
}

// deregister removes this replica from the gateway's ring with drain
// semantics: the gateway stops routing new keys here immediately and
// waits for in-flight requests (which our own drain is completing) to
// finish. Runs under its own deadline because the serve context is
// already cancelled by the time shutdown begins.
func deregister(gw, advertise, token string) {
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(dctx, http.MethodDelete,
		gw+"/v1/admin/replicas?url="+url.QueryEscape(advertise), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qrec-serve: deregister:", err)
		return
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qrec-serve: deregister:", err)
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	fmt.Fprintf(os.Stderr, "qrec-serve: deregistered %s from %s (status %d)\n",
		advertise, gw, resp.StatusCode)
}
