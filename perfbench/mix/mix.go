// Package mix builds the benchmark's traffic mixes. A mix is a pure
// function of its name, the workload seed and the run length: the same
// arguments give byte-identical arrival times and request bodies.
package mix

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro"
	"repro/perfbench/loadgen"
)

// Names lists the mixes in the order the benchmark documents them.
var Names = []string{"cold-sdss", "hot-sdss", "fleet-sqlshare"}

// Mix is one workload: the topology it runs on and its request stream.
type Mix struct {
	Name string
	// Profile is the qrec-train profile of the served model.
	Profile string
	// Replicas is the number of qrec-serve processes; with Gateway set
	// they sit behind one qrec-gw and run with -enable-push.
	Replicas int
	Gateway  bool
	// Warmup is sent closed-loop before the timed window.
	Warmup []loadgen.Request
	// Timed is the open-loop schedule of the timed window.
	Timed []loadgen.Request
	// PushAt is when the model push runs during the timed window; 0
	// means no push.
	PushAt time.Duration
	// Limit is the latency limit an item must meet to count as ok.
	Limit time.Duration
	// OracleShare is the share of answered items checked against the
	// library oracle.
	OracleShare float64
}

// Per-mix parameters. README.md gives the measurements behind the rates.
const (
	coldRate     = 12.0
	coldWarmup   = 6
	hotRate      = 400.0
	hotWorkingSz = 100
	hotZipfS     = 1.2
	fleetRate    = 30.0
	fleetActive  = 24 // sessions interleaved at any time
	fleetBatchK  = 8  // every k-th arrival is a batch call ...
	fleetBatchM  = 4  // ... of this tenant's next m queries
	fleetWarmup  = 4
	topN         = 3
)

// Build returns the named mix for seed and a timed window of length d.
func Build(name string, seed int64, d time.Duration) (*Mix, error) {
	switch name {
	case "cold-sdss":
		return cold(seed, d), nil
	case "hot-sdss":
		return hot(seed, d), nil
	case "fleet-sqlshare":
		return fleet(seed, d), nil
	}
	return nil, fmt.Errorf("mix: unknown workload %q (want one of %v)", name, Names)
}

// distinct returns one query per normalised token sequence, in workload
// order, with each sequence's frequency and token count.
func distinct(wl *repro.Workload) (sqls []string, freq, length []int) {
	wl.Enrich()
	idx := map[string]int{}
	for _, q := range wl.Queries() {
		k := q.Key()
		if i, ok := idx[k]; ok {
			freq[i]++
			continue
		}
		idx[k] = len(sqls)
		sqls = append(sqls, q.SQL)
		freq = append(freq, 1)
		length = append(length, len(q.Tokens))
	}
	return sqls, freq, length
}

// cold sends every normalised query once, so every request misses the
// response cache and runs the model. The queries are a stratified sample
// by token count: the pool is sorted by length and cut into one stratum
// per arrival, so every seed sends the workload's length mix rather than
// a lucky or unlucky draw of it.
func cold(seed int64, d time.Duration) *Mix {
	rng := rand.New(rand.NewSource(seed))
	sqls, _, length := distinct(repro.GenerateSDSS(seed))
	order := make([]int, len(sqls))
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	m := &Mix{Name: "cold-sdss", Profile: "sdss", Replicas: 1, Limit: 500 * time.Millisecond, OracleShare: 0.25}
	for _, i := range order[:coldWarmup] {
		m.Warmup = append(m.Warmup, loadgen.Single(0, "", loadgen.Item{SQL: sqls[i], N: topN}))
	}
	pool := order[coldWarmup:]
	sort.SliceStable(pool, func(a, b int) bool { return length[pool[a]] < length[pool[b]] })
	arrivals := loadgen.Poisson(rng, coldRate, d)
	n := min(len(arrivals), len(pool))
	picks := make([]int, n)
	for k := range picks {
		lo, hi := k*len(pool)/n, (k+1)*len(pool)/n
		picks[k] = pool[lo+rng.Intn(hi-lo)]
	}
	rng.Shuffle(n, func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	for k, at := range arrivals[:n] {
		m.Timed = append(m.Timed, loadgen.Single(at, "", loadgen.Item{SQL: sqls[picks[k]], N: topN}))
	}
	return m
}

// hot draws Zipf-distributed requests over the most popular queries. The
// warm-up sends the whole working set once, so the timed window is almost
// all response-cache hits.
func hot(seed int64, d time.Duration) *Mix {
	rng := rand.New(rand.NewSource(seed))
	sqls, freq, _ := distinct(repro.GenerateSDSS(seed))
	order := make([]int, len(sqls))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return freq[order[a]] > freq[order[b]] })
	work := make([]string, 0, hotWorkingSz)
	for _, i := range order[:hotWorkingSz] {
		work = append(work, sqls[i])
	}
	m := &Mix{Name: "hot-sdss", Profile: "sdss", Replicas: 1, Limit: 20 * time.Millisecond, OracleShare: 0.02}
	for _, q := range work {
		m.Warmup = append(m.Warmup, loadgen.Single(0, "", loadgen.Item{SQL: q, N: topN}))
	}
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(work)-1))
	for _, at := range loadgen.Poisson(rng, hotRate, d) {
		m.Timed = append(m.Timed, loadgen.Single(at, "", loadgen.Item{SQL: work[zipf.Uint64()], N: topN}))
	}
	return m
}

// session is one tenant session being replayed.
type session struct {
	id   string
	sqls []string
	next int
}

// take returns the session's next k queries as items, each carrying its
// predecessor as prev_sql, wrapping to the session start when it ends.
func (s *session) take(k int, strategy string) []loadgen.Item {
	items := make([]loadgen.Item, 0, k)
	for len(items) < k {
		it := loadgen.Item{SQL: s.sqls[s.next], N: topN, Strategy: strategy}
		if s.next > 0 {
			it.PrevSQL = s.sqls[s.next-1]
		}
		items = append(items, it)
		s.next = (s.next + 1) % len(s.sqls)
	}
	return items
}

// fleet replays SQLShare-sim tenant sessions through the gateway: each
// session is one X-Client-ID with prev_sql context, sessions replay with
// their natural repetition, every fleetBatchK-th arrival is a batch call,
// and the model is pushed to every replica halfway through.
func fleet(seed int64, d time.Duration) *Mix {
	rng := rand.New(rand.NewSource(seed))
	wl := repro.GenerateSQLShare(seed)
	wl.Enrich()
	var all []*session
	for _, s := range wl.Sessions {
		if len(s.Queries) == 0 {
			continue
		}
		ss := &session{id: s.ID}
		for _, q := range s.Queries {
			ss.sqls = append(ss.sqls, q.SQL)
		}
		all = append(all, ss)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	m := &Mix{Name: "fleet-sqlshare", Profile: "sqlshare", Replicas: 2, Gateway: true,
		PushAt: d / 2, Limit: time.Second, OracleShare: 0.2}

	warm := all[len(all)-1]
	for _, it := range warm.take(fleetWarmup, "") {
		m.Warmup = append(m.Warmup, loadgen.Single(0, "warmup", it))
	}
	all = all[:len(all)-1]
	active := append([]*session(nil), all[:fleetActive]...)
	nextSession := fleetActive
	for i, at := range loadgen.Poisson(rng, fleetRate, d) {
		slot := rng.Intn(len(active))
		s := active[slot]
		// A fixed one-in-ten cadence per strategy keeps the strategy mix
		// the same for every seed.
		strategy := "beam"
		switch i % 10 {
		case 4:
			strategy = "diverse-beam"
		case 9:
			strategy = "sampling"
		}
		if i%fleetBatchK == fleetBatchK-1 {
			m.Timed = append(m.Timed, loadgen.Batch(at, s.id, s.take(fleetBatchM, strategy)))
		} else {
			m.Timed = append(m.Timed, loadgen.Single(at, s.id, s.take(1, strategy)[0]))
		}
		if s.next == 0 {
			// The session ended: the next tenant session takes its slot.
			active[slot] = all[nextSession%len(all)]
			nextSession++
		}
	}
	return m
}
