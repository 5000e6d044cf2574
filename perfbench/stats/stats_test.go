package stats

import "testing"

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestSelectTailBoundaries(t *testing.T) {
	cases := []struct {
		n        int
		perMille int
		label    string
	}{
		{5, 1000, "max"},
		{19, 1000, "max"},
		{20, 500, "p50"},
		{99, 500, "p50"},
		{100, 900, "p90"},
		{101, 900, "p90"},
		{999, 900, "p90"},
		{1000, 990, "p99"},
		{1001, 990, "p99"},
		{9999, 990, "p99"},
		{10000, 999, "p99.9"},
		{10001, 999, "p99.9"},
	}
	for _, c := range cases {
		tl := SelectTail(ramp(c.n))
		if tl.PerMille != c.perMille || tl.Label() != c.label {
			t.Errorf("n=%d: got %s (%d), want %s", c.n, tl.Label(), tl.PerMille, c.label)
		}
		if tl.N != c.n {
			t.Errorf("n=%d: recorded N=%d", c.n, tl.N)
		}
		if tl.PerMille < 1000 && tl.Beyond < MinBeyond {
			t.Errorf("n=%d: only %d samples beyond %s", c.n, tl.Beyond, tl.Label())
		}
		// On a 1..n ramp, the value past which Beyond samples lie is n-Beyond.
		if tl.PerMille < 1000 && tl.Value != float64(c.n-tl.Beyond) && tl.Value != float64(c.n-tl.Beyond+1) {
			t.Errorf("n=%d: %s value %g not at the boundary (%d beyond)", c.n, tl.Label(), tl.Value, tl.Beyond)
		}
	}
}

func TestSelectTailValues(t *testing.T) {
	if got := SelectTail(ramp(1000)).Value; got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := SelectTail(ramp(100)).Value; got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := SelectTail(ramp(10000)).Value; got != 9990 {
		t.Errorf("p99.9 of 1..10000 = %g, want 9990", got)
	}
	if got := SelectTail(ramp(3)).Value; got != 3 {
		t.Errorf("max of 1..3 = %g, want 3", got)
	}
	if got := SelectTail(nil); got.N != 0 || got.Value != 0 {
		t.Errorf("empty sample: %+v", got)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g", got)
	}
	if got := Percentile(ramp(10), 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %g", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
}
