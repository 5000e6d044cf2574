package trace

import (
	"testing"
	"time"
)

func ms(a, b int) Interval {
	return Interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		parent   Interval
		children []Interval
		self     time.Duration
	}{
		{"no children", ms(0, 10), nil, 10 * time.Millisecond},
		// The template and fragment halves run in parallel: their union,
		// not their sum, is subtracted.
		{"parallel halves", ms(0, 100), []Interval{ms(10, 40), ms(10, 90)}, 20 * time.Millisecond},
		{"partly overlapping", ms(0, 100), []Interval{ms(10, 50), ms(30, 70)}, 40 * time.Millisecond},
		{"nested child", ms(0, 100), []Interval{ms(10, 90), ms(20, 30)}, 20 * time.Millisecond},
		{"disjoint", ms(0, 100), []Interval{ms(10, 20), ms(50, 60)}, 80 * time.Millisecond},
		{"touching", ms(0, 100), []Interval{ms(10, 20), ms(20, 30)}, 80 * time.Millisecond},
		// A child that outlives its parent (an abandoned model call after
		// a soft timeout) only covers the parent up to the parent's end.
		{"outlives parent", ms(0, 100), []Interval{ms(60, 250)}, 60 * time.Millisecond},
		{"starts before parent", ms(50, 100), []Interval{ms(0, 70)}, 30 * time.Millisecond},
		{"entirely outside", ms(0, 100), []Interval{ms(150, 200)}, 100 * time.Millisecond},
		{"covers parent", ms(10, 20), []Interval{ms(0, 30), ms(5, 25)}, 0},
	}
	for _, c := range cases {
		if got := Self(c.parent, c.children); got != c.self {
			t.Errorf("%s: self %v, want %v", c.name, got, c.self)
		}
	}
}

func TestCoveredIgnoresOrder(t *testing.T) {
	a := Covered(ms(0, 100), []Interval{ms(70, 90), ms(10, 40), ms(30, 50)})
	b := Covered(ms(0, 100), []Interval{ms(10, 40), ms(30, 50), ms(70, 90)})
	if a != b || a != 60*time.Millisecond {
		t.Errorf("covered %v and %v, want 60ms", a, b)
	}
}
