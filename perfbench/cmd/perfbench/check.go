package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/perfbench/loadgen"
	"repro/perfbench/mix"
	"repro/perfbench/oracle"
	"repro/perfbench/tally"
)

// mismatch is one sampled answer the oracle disagrees with.
type mismatch struct {
	item loadgen.Item
	diff string
}

// sample returns the answered items the seeded oracle sample picks. The
// pick depends only on the seed and the item's position in the stream.
func sample(m *mix.Mix, outs []loadgen.Outcome, seed int64) (items []loadgen.Item, got []tally.Answer) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i, req := range m.Timed {
		var as []tally.Answer
		if o := outs[i]; o.Err == nil && o.Status == 200 {
			as, _ = tally.Answers(req, o.Body)
		}
		for j, it := range req.Items {
			pick := rng.Float64() < m.OracleShare
			if pick && j < len(as) && as[j].Error == "" {
				items = append(items, it)
				got = append(got, as[j])
			}
		}
	}
	return items, got
}

// checkOracle recomputes the sampled answers from the served model
// directory, spread over the CPUs (the servers are stopped by now). It
// returns the mismatches and the number of answers checked.
func checkOracle(modelDir string, m *mix.Mix, outs []loadgen.Outcome, seed int64) ([]mismatch, int, error) {
	orc, err := oracle.Load(modelDir)
	if err != nil {
		return nil, 0, err
	}
	items, got := sample(m, outs, seed)
	var (
		mu   sync.Mutex
		bad  []mismatch
		ferr error
		wg   sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				diff, err := orc.Check(items[i], got[i])
				mu.Lock()
				if err != nil && ferr == nil {
					ferr = err
				}
				if diff != "" {
					bad = append(bad, mismatch{items[i], diff})
				}
				mu.Unlock()
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	sort.Slice(bad, func(i, j int) bool { return bad[i].item.SQL < bad[j].item.SQL })
	return bad, len(items), ferr
}
