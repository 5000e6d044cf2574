package tally

import (
	"errors"
	"testing"
	"time"

	"repro/perfbench/loadgen"
)

func TestTallyCountsItems(t *testing.T) {
	reqs := []loadgen.Request{
		loadgen.Single(0, "", loadgen.Item{SQL: "a"}),
		loadgen.Single(0, "", loadgen.Item{SQL: "b"}),
		loadgen.Batch(0, "", []loadgen.Item{{SQL: "c"}, {SQL: "d"}, {SQL: "e"}}),
		loadgen.Single(0, "", loadgen.Item{SQL: "f"}),
		loadgen.Single(0, "", loadgen.Item{SQL: "g"}),
		loadgen.Single(time.Second, "", loadgen.Item{SQL: "h"}),
	}
	outs := []loadgen.Outcome{
		{Done: 5 * time.Millisecond, Status: 200, Body: []byte(`{"templates":["t"]}`)},
		{Done: 50 * time.Millisecond, Status: 200, Body: []byte(`{"templates":["t"]}`)},
		{Done: 7 * time.Millisecond, Status: 200, Body: []byte(`{"results":[{"templates":["t"]},{"degraded":true},{"error":"x"}]}`)},
		{Status: 503, Body: []byte(`{}`)},
		{Err: errors.New("reset")},
		{Err: loadgen.ErrNotSent},
	}
	r := Tally(reqs, outs, 10*time.Millisecond)
	if r.Items != 8 || r.OK != 2 || r.Degraded != 1 || r.Failed != 4 || r.Answered != 4 {
		t.Fatalf("%+v", r)
	}
	// Only the two full-quality single calls count toward latency.
	if r.Tail.N != 2 || r.P50 != 5 {
		t.Fatalf("latency sample %+v p50 %g", r.Tail, r.P50)
	}
	if got := r.Share(r.Failed); got != 0.5 {
		t.Errorf("fail share %g", got)
	}
}
