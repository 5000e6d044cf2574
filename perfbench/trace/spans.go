package trace

import (
	"sort"
	"sync"
	"time"
)

// Interval is a span's extent, as offsets from the recorder's epoch.
type Interval struct{ Start, End time.Duration }

// Len is the interval's duration (0 when malformed).
func (iv Interval) Len() time.Duration {
	if iv.End < iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// Covered returns how much of parent the union of children covers.
// Children are clipped to the parent, so a child that outlives its parent
// counts only up to the parent's end, and overlapping children (the
// template and fragment halves run in parallel) count once.
func Covered(parent Interval, children []Interval) time.Duration {
	cs := make([]Interval, 0, len(children))
	for _, c := range children {
		c.Start = max(c.Start, parent.Start)
		c.End = min(c.End, parent.End)
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total time.Duration
	var cur Interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			total += cur.Len()
			cur = c
		}
	}
	if len(cs) > 0 {
		total += cur.Len()
	}
	return total
}

// Self is a span's self time: its duration minus the part of its interval
// its children cover.
func Self(parent Interval, children []Interval) time.Duration {
	return parent.Len() - Covered(parent, children)
}

// Span is one timed call at a layer boundary.
type Span struct {
	Name string
	Interval
	// Children are the spans the call caused, recorded by the wrappers
	// below it.
	Children []Span
	// Tag carries the span's link: the generator's request index on the
	// outermost handler span, the replica on an upstream attempt.
	Tag string
}

// childIntervals returns the intervals of the children named name.
func (s *Span) childIntervals(name string) []Interval {
	var out []Interval
	for _, c := range s.Children {
		if c.Name == name {
			out = append(out, c.Interval)
		}
	}
	return out
}

// node is an open span that children can attach to from any goroutine.
type node struct {
	mu   sync.Mutex
	span Span
}

func (n *node) add(c Span) {
	n.mu.Lock()
	n.span.Children = append(n.span.Children, c)
	n.mu.Unlock()
}

// Recorder keeps finished root spans in memory until the run ends.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	roots []Span
}

// NewRecorder starts the recorder's clock.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Now is the current offset from the epoch.
func (r *Recorder) Now() time.Duration { return time.Since(r.epoch) }

// finish stores a root span.
func (r *Recorder) finish(n *node) {
	n.mu.Lock()
	s := n.span
	n.mu.Unlock()
	r.mu.Lock()
	r.roots = append(r.roots, s)
	r.mu.Unlock()
}

// Roots returns the finished root spans named name.
func (r *Recorder) Roots(name string) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, s := range r.roots {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
