package loadgen

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonIsAPureFunctionOfTheSeed(t *testing.T) {
	a := Poisson(rand.New(rand.NewSource(7)), 500, 2*time.Second)
	b := Poisson(rand.New(rand.NewSource(7)), 500, 2*time.Second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d: %v != %v", i, a[i], b[i])
		}
	}
	if n := len(a); n < 800 || n > 1200 {
		t.Errorf("%d arrivals in 2s at 500/s", n)
	}
	c := Poisson(rand.New(rand.NewSource(8)), 500, 2*time.Second)
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("a different seed gave the same schedule")
	}
}

// A server that stalls for one second on the first call must charge that
// stall to every arrival queued behind it on the single connection, not
// only to the stalled call.
func TestCoordinatedOmissionIsCharged(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(time.Second)
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	var reqs []Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, Single(time.Duration(i)*50*time.Millisecond, "", Item{SQL: "SELECT 1"}))
	}
	r := &Runner{BaseURL: srv.URL, Conns: 1, Timeout: 5 * time.Second}
	out := r.Run(context.Background(), reqs, 5*time.Second)
	for i, o := range out {
		if o.Err != nil || o.Status != 200 {
			t.Fatalf("request %d: status %d err %v", i, o.Status, o.Err)
		}
		// Every call completes after the stall ends at ~1s, so its latency
		// from the scheduled send is at least 1s minus its offset.
		want := time.Second - reqs[i].At - 20*time.Millisecond
		if got := o.Latency(reqs[i]); got < want {
			t.Errorf("request %d at %v: latency %v, want >= %v", i, reqs[i].At, got, want)
		}
		// The generator itself was not late: it released each request on
		// schedule even though the connection was busy.
		if lag := o.Sent - reqs[i].At; lag > 50*time.Millisecond {
			t.Errorf("request %d: generator lag %v", i, lag)
		}
	}
}

func TestUnsentRequestsAreMarked(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	reqs := []Request{
		Single(0, "", Item{SQL: "a"}),
		Single(0, "", Item{SQL: "b"}),
	}
	out := (&Runner{BaseURL: srv.URL, Conns: 1, Timeout: time.Second}).Run(context.Background(), reqs, 100*time.Millisecond)
	if out[0].Status != 200 {
		t.Fatalf("first call: %+v", out[0])
	}
	if out[1].Err != ErrNotSent {
		t.Fatalf("second call should be unsent, got %+v", out[1])
	}
}

func TestBodiesAreTheWireShape(t *testing.T) {
	s := Single(0, "c", Item{SQL: "SELECT a FROM t", PrevSQL: "SELECT b FROM t", N: 3, Strategy: "beam"})
	if got, want := string(s.Body), `{"sql":"SELECT a FROM t","prev_sql":"SELECT b FROM t","n":3,"strategy":"beam"}`; got != want {
		t.Errorf("single body %s, want %s", got, want)
	}
	b := Batch(0, "c", []Item{{SQL: "x"}, {SQL: "y"}})
	if got, want := string(b.Body), `{"requests":[{"sql":"x"},{"sql":"y"}]}`; got != want {
		t.Errorf("batch body %s, want %s", got, want)
	}
}
