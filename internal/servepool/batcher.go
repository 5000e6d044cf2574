package servepool

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sqlast"
)

// TemplateQuery is one item of a batched template prediction.
type TemplateQuery struct {
	PrevToks, CurToks []string
	N                 int
}

// FragmentQuery is one item of a batched N-fragments prediction.
type FragmentQuery struct {
	CurToks []string
	N       int
	Opts    core.NFragmentsOptions
}

// BatchPredictor is the batched form of Predictor, and the form the
// engine executes: every request half runs as an item of a batch. Each
// out[i] must be exactly what the corresponding single-item call would
// have produced — the engine's batching is invisible in response bytes,
// and the default model path guarantees it bit-for-bit (see
// seq2seq/infer.go). Implementations must be safe for concurrent use.
type BatchPredictor interface {
	Predictor
	TemplatesBatch(ctx context.Context, qs []TemplateQuery) ([][]string, error)
	FragmentsBatch(ctx context.Context, qs []FragmentQuery) ([]map[sqlast.FragmentKind][]string, error)
}

// onePredictor lifts a plain Predictor into batch form, one single-item
// call per query. The engine never coalesces for it, so every batch it
// sees holds one item and runs under that item's own context.
type onePredictor struct{ Predictor }

func (p onePredictor) TemplatesBatch(ctx context.Context, qs []TemplateQuery) ([][]string, error) {
	out := make([][]string, len(qs))
	for i, q := range qs {
		v, err := p.Templates(ctx, q.PrevToks, q.CurToks, q.N)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (p onePredictor) FragmentsBatch(ctx context.Context, qs []FragmentQuery) ([]map[sqlast.FragmentKind][]string, error) {
	out := make([]map[sqlast.FragmentKind][]string, len(qs))
	for i, q := range qs {
		v, err := p.Fragments(ctx, q.CurToks, q.N, q.Opts)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// TemplatesBatch implements BatchPredictor on the default model path via
// one batched encoder forward and stacked classification head.
func (p recPredictor) TemplatesBatch(_ context.Context, qs []TemplateQuery) ([][]string, error) {
	srcs := make([][]int, len(qs))
	ns := make([]int, len(qs))
	for i, q := range qs {
		srcs[i] = core.EncodeContext(p.rec.Vocab, q.PrevToks, q.CurToks)
		ns[i] = q.N
	}
	return p.rec.Classifier.PredictTopNBatch(srcs, ns), nil
}

// FragmentsBatch implements BatchPredictor on the default model path via
// one batched decode loop.
func (p recPredictor) FragmentsBatch(_ context.Context, qs []FragmentQuery) ([]map[sqlast.FragmentKind][]string, error) {
	srcs := make([][]int, len(qs))
	ns := make([]int, len(qs))
	opts := make([]core.NFragmentsOptions, len(qs))
	for i, q := range qs {
		srcs[i] = p.rec.Vocab.Encode(q.CurToks, true)
		ns[i] = q.N
		opts[i] = q.Opts
	}
	return p.rec.NFragmentsFromTokensBatch(srcs, ns, opts), nil
}

// batchItem is one request half waiting in (or executed by) a micro-batch.
// The submitter fills the inputs and waits on done; the batch execution
// fills exactly one of the outputs and closes done.
type batchItem struct {
	ctx      context.Context
	enqueued time.Time

	// Inputs (tmpl and frag items share the struct; the owning batcher's
	// exec knows which half it runs).
	key               string
	prevToks, curToks []string
	n                 int
	opts              core.NFragmentsOptions

	// Outputs.
	tmpl  []string
	frags map[sqlast.FragmentKind][]string
	err   error
	done  chan struct{}
}

// batcher coalesces concurrently-submitted items into batches bounded by
// max items and a window deadline: the first item of a forming batch arms
// the window timer; reaching max flushes immediately (size hit), the
// timer expiring flushes whatever has gathered (window hit). With max 1
// every item flushes on arrival and the timer is never armed. Flushed
// batches run on the engine's worker pool. The clock and timer are
// injected so tests drive the window deterministically.
type batcher struct {
	max    int
	window time.Duration
	now    func() time.Time
	after  func(time.Duration) <-chan time.Time
	pool   *Pool
	exec   func(context.Context, []*batchItem)

	in   chan *batchItem
	stop chan struct{}
	wg   sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	statMu      sync.Mutex
	batches     uint64
	items       uint64
	sizeHits    uint64
	windowHits  uint64
	cancelled   uint64
	sizeHist    []uint64 // index: batch size - 1 (post-cancellation size)
	queueWaitNs uint64
}

func newBatcher(max int, window time.Duration, now func() time.Time, after func(time.Duration) <-chan time.Time, pool *Pool, exec func(context.Context, []*batchItem)) *batcher {
	b := &batcher{
		max:      max,
		window:   window,
		now:      now,
		after:    after,
		pool:     pool,
		exec:     exec,
		in:       make(chan *batchItem, max),
		stop:     make(chan struct{}),
		sizeHist: make([]uint64, max),
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// enqueue hands an item to the collector. The item's done channel closes
// once its batch has executed (or it was dropped for cancellation at
// flush time); callers select on done against their own context.
func (b *batcher) enqueue(it *batchItem) error {
	it.enqueued = b.now()
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	select {
	case b.in <- it:
		b.mu.RUnlock()
		return nil
	case <-it.ctx.Done():
		b.mu.RUnlock()
		return it.ctx.Err()
	}
}

// close stops the collector, flushing any forming batch first. Safe to
// call once; the engine closes batchers before the pool so the final
// flush can still execute.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	b.wg.Wait()
}

func (b *batcher) run() {
	defer b.wg.Done()
	var pending []*batchItem
	var timer <-chan time.Time
	flush := func(bySize bool) {
		if len(pending) == 0 {
			timer = nil
			return
		}
		batch := pending
		pending = nil
		timer = nil
		b.launch(batch, bySize)
	}
	for {
		select {
		case it := <-b.in:
			pending = append(pending, it)
			if len(pending) >= b.max {
				flush(true)
			} else if timer == nil {
				timer = b.after(b.window)
			}
		case <-timer:
			flush(false)
		case <-b.stop:
			// Drain racing enqueues (their RLock was held before closed
			// flipped), then flush what formed and exit.
			for {
				select {
				case it := <-b.in:
					pending = append(pending, it)
				default:
					flush(false)
					return
				}
			}
		}
	}
}

// launch drops items whose context is already cancelled — removal cannot
// change the surviving items' outputs, since every batched kernel is
// segment-local — and hands the rest to the pool. Pool submission errors
// (shutdown, or a one-item batch's caller giving up) fail the batch; the
// per-item waiters map that to the usual ErrClosed or ctx handling.
func (b *batcher) launch(batch []*batchItem, bySize bool) {
	live := batch[:0]
	dropped := 0
	for _, it := range batch {
		if err := it.ctx.Err(); err != nil {
			it.err = err
			close(it.done)
			dropped++
			continue
		}
		live = append(live, it)
	}
	now := b.now()
	b.statMu.Lock()
	b.cancelled += uint64(dropped)
	if len(live) > 0 {
		b.batches++
		b.items += uint64(len(live))
		if bySize {
			b.sizeHits++
		} else {
			b.windowHits++
		}
		b.sizeHist[len(live)-1]++
		for _, it := range live {
			b.queueWaitNs += uint64(now.Sub(it.enqueued))
		}
	}
	b.statMu.Unlock()
	if len(live) == 0 {
		return
	}
	// A one-item batch runs under its item's context, as a per-request
	// task: the pool skips it if the caller gave up while it queued, and
	// the predictor sees the request's deadline and values. A shared
	// batch runs detached, so one submitter's deadline cannot abort its
	// siblings' work; submitters that give up stop waiting (Pool.Do's
	// contract: fn may still run after the caller's ctx expires).
	ctx := live[0].ctx
	if len(live) > 1 {
		//lint:ignore ctxflow deliberate detachment, see comment above: the shared batch must outlive any single submitter's deadline
		ctx = context.Background()
	}
	// Do can return ctx.Err() after a worker has started the task, so the
	// task and the failure path race to claim the items: only the winner
	// completes them, and each done channel closes once.
	var claimed atomic.Bool
	go func() {
		err := b.pool.Do(ctx, func() {
			if claimed.CompareAndSwap(false, true) {
				b.exec(ctx, live)
			}
		})
		if err != nil && claimed.CompareAndSwap(false, true) {
			for _, it := range live {
				it.err = err
				close(it.done)
			}
		}
	}()
}

// BatcherHalfStats is one batcher's counters.
type BatcherHalfStats struct {
	// Batches counts executed batches; Items the items they carried.
	Batches uint64 `json:"batches"`
	Items   uint64 `json:"items"`
	// SizeHits counts batches flushed full; WindowHits counts batches
	// flushed by the window deadline.
	SizeHits   uint64 `json:"size_hits"`
	WindowHits uint64 `json:"window_hits"`
	// CancelledItems counts items dropped from a forming batch because
	// their caller had already given up.
	CancelledItems uint64 `json:"cancelled_items"`
	// SizeHist[i] counts batches that executed with i+1 items.
	SizeHist []uint64 `json:"size_hist"`
	// QueueWaitNsTotal sums each executed item's coalescing wait.
	QueueWaitNsTotal uint64 `json:"queue_wait_ns_total"`
}

func (b *batcher) stats() BatcherHalfStats {
	b.statMu.Lock()
	defer b.statMu.Unlock()
	return BatcherHalfStats{
		Batches:          b.batches,
		Items:            b.items,
		SizeHits:         b.sizeHits,
		WindowHits:       b.windowHits,
		CancelledItems:   b.cancelled,
		SizeHist:         append([]uint64(nil), b.sizeHist...),
		QueueWaitNsTotal: b.queueWaitNs,
	}
}

// BatcherStats snapshots both halves of the engine's micro-batcher.
type BatcherStats struct {
	// Enabled reports whether coalescing is active (batch size >= 2 and
	// a BatchPredictor model path). The counters also count the one-item
	// batches of an engine that does not coalesce.
	Enabled bool `json:"enabled"`
	// MaxSize and WindowNs echo the configured bounds (zero unless
	// Enabled).
	MaxSize   int              `json:"max_size,omitempty"`
	WindowNs  time.Duration    `json:"window_ns,omitempty"`
	Templates BatcherHalfStats `json:"templates"`
	Fragments BatcherHalfStats `json:"fragments"`
}
