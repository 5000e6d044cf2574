package mix

import (
	"bytes"
	"testing"
	"time"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range Names {
		a, err := Build(name, 3, 4*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Build(name, 3, 4*time.Second)
		c, _ := Build(name, 4, 4*time.Second)
		if len(a.Timed) == 0 || len(a.Timed) != len(b.Timed) {
			t.Fatalf("%s: %d and %d timed requests", name, len(a.Timed), len(b.Timed))
		}
		for i := range a.Timed {
			ra, rb := a.Timed[i], b.Timed[i]
			if ra.At != rb.At || ra.Path != rb.Path || ra.ClientID != rb.ClientID || !bytes.Equal(ra.Body, rb.Body) {
				t.Fatalf("%s: request %d differs between runs of one seed", name, i)
			}
		}
		for i := range a.Warmup {
			if !bytes.Equal(a.Warmup[i].Body, b.Warmup[i].Body) {
				t.Fatalf("%s: warm-up %d differs", name, i)
			}
		}
		if len(c.Timed) > 0 && c.Timed[0].At == a.Timed[0].At && bytes.Equal(c.Timed[0].Body, a.Timed[0].Body) {
			t.Errorf("%s: seeds 3 and 4 gave the same first request", name)
		}
	}
}

func TestColdNeverRepeatsAQuery(t *testing.T) {
	m, _ := Build("cold-sdss", 5, 10*time.Second)
	seen := map[string]bool{}
	for _, r := range append(m.Warmup, m.Timed...) {
		if seen[r.Items[0].SQL] {
			t.Fatalf("query sent twice: %s", r.Items[0].SQL)
		}
		seen[r.Items[0].SQL] = true
	}
}

func TestHotStaysInsideTheWarmedSet(t *testing.T) {
	m, _ := Build("hot-sdss", 5, time.Second)
	warm := map[string]bool{}
	for _, r := range m.Warmup {
		warm[string(r.Body)] = true
	}
	for _, r := range m.Timed {
		if !warm[string(r.Body)] {
			t.Fatalf("timed request outside the warmed set: %s", r.Body)
		}
	}
}

func TestFleetMixesBatchesAndStrategies(t *testing.T) {
	m, _ := Build("fleet-sqlshare", 5, 20*time.Second)
	batches, strategies := 0, map[string]int{}
	for _, r := range m.Timed {
		if len(r.Items) > 1 {
			batches++
		}
		for _, it := range r.Items {
			strategies[it.Strategy]++
		}
	}
	if batches == 0 || len(strategies) != 3 {
		t.Errorf("batches=%d strategies=%v", batches, strategies)
	}
	if m.PushAt != 10*time.Second {
		t.Errorf("push at %v", m.PushAt)
	}
}
