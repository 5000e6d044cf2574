// Package tally classifies the outcomes of a timed window: which items
// were answered at full quality, degraded or failed, and the latency of
// the full-quality calls.
package tally

import (
	"encoding/json"
	"time"

	"repro/perfbench/loadgen"
	"repro/perfbench/stats"
)

// Answer is one served recommendation (or batch item) in the API's wire
// shape.
type Answer struct {
	Templates []string            `json:"templates"`
	Fragments map[string][]string `json:"fragments"`
	Degraded  bool                `json:"degraded"`
	Error     string              `json:"error"`
}

// Answers decodes the per-item answers of a 200 response: one for a
// single call, one per batch item. ok is false when the body does not
// have that shape.
func Answers(req loadgen.Request, body []byte) (as []Answer, ok bool) {
	if req.Path == loadgen.PathSingle {
		var a Answer
		if json.Unmarshal(body, &a) != nil {
			return nil, false
		}
		return []Answer{a}, true
	}
	var b struct {
		Results []Answer `json:"results"`
	}
	if json.Unmarshal(body, &b) != nil || len(b.Results) != len(req.Items) {
		return nil, false
	}
	return b.Results, true
}

// Report is the outcome accounting of one timed window. A batch call of
// m queries counts as m items.
type Report struct {
	Items    int // items scheduled
	OK       int // full quality within the latency limit
	Degraded int // answered "degraded":true
	Failed   int // non-200, per-item error, transport error or never sent
	Answered int // items with an answer, degraded or not
	// P50, P90 and Tail are over the latencies (ms, from scheduled send
	// to last byte) of 200 calls whose every item is full quality.
	P50, P90 float64
	Tail     stats.Tail
	// LagP99 is the 99th percentile of the generator's lateness (ms).
	LagP99 float64
	// Full flags the calls that count toward the latency figures.
	Full []bool
}

// Share returns n as a share of the items scheduled.
func (r *Report) Share(n int) float64 {
	if r.Items == 0 {
		return 0
	}
	return float64(n) / float64(r.Items)
}

// Tally classifies outs, the outcomes of reqs, against a latency limit.
func Tally(reqs []loadgen.Request, outs []loadgen.Outcome, limit time.Duration) *Report {
	r := &Report{Full: make([]bool, len(reqs))}
	var lat, lag []float64
	for i, req := range reqs {
		o := outs[i]
		r.Items += len(req.Items)
		if o.Err != loadgen.ErrNotSent {
			lag = append(lag, stats.Ms(o.Sent-req.At))
		}
		if o.Err != nil || o.Status != 200 {
			r.Failed += len(req.Items)
			continue
		}
		as, ok := Answers(req, o.Body)
		if !ok {
			r.Failed += len(req.Items)
			continue
		}
		full := true
		for _, a := range as {
			switch {
			case a.Error != "":
				r.Failed++
				full = false
			case a.Degraded:
				r.Degraded++
				r.Answered++
				full = false
			default:
				r.Answered++
				if o.Latency(req) <= limit {
					r.OK++
				}
			}
		}
		if full {
			r.Full[i] = true
			lat = append(lat, stats.Ms(o.Latency(req)))
		}
	}
	sorted := stats.Sorted(lat)
	r.P50 = stats.Percentile(sorted, 0.5)
	r.P90 = stats.Percentile(sorted, 0.9)
	r.Tail = stats.SelectTail(sorted)
	r.LagP99 = stats.Percentile(stats.Sorted(lag), 0.99)
	return r
}
