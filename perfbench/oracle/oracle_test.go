package oracle

import (
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/modeldir"
	"repro/perfbench/loadgen"
)

func tinyModel(t *testing.T) string {
	t.Helper()
	ds, err := repro.Prepare(repro.GenerateSDSS(3))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := repro.TrainRecommender(ds, repro.Transformer,
		repro.WithEpochs(1), repro.WithMaxTrainPairs(40), repro.WithDModel(16), repro.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := modeldir.Save(dir, rec); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCheck(t *testing.T) {
	o, err := Load(tinyModel(t))
	if err != nil {
		t.Fatal(err)
	}
	it := loadgen.Item{SQL: "SELECT ra, dec FROM PhotoObj WHERE ra > 10", N: 3, Strategy: "diverse-beam"}
	want, err := o.Want(it)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := o.Check(it, want); diff != "" || err != nil {
		t.Fatalf("the oracle's own answer mismatched: %s %v", diff, err)
	}
	bad := want
	bad.Templates = append([]string{"SELECT wrong"}, want.Templates...)
	if diff, _ := o.Check(it, bad); !strings.Contains(diff, "SELECT wrong") {
		t.Fatalf("a wrong template list passed: %q", diff)
	}
	// A degraded answer is checked against the fallback, not the model.
	deg := o.Degraded(it)
	if diff, _ := o.Check(it, deg); diff != "" {
		t.Fatalf("fallback answer mismatched: %s", diff)
	}
	if !reflect.DeepEqual(want.Templates, deg.Templates) {
		want.Degraded = true
		if diff, _ := o.Check(it, want); diff == "" {
			t.Fatal("a model answer flagged degraded passed as the fallback")
		}
	}
	if _, err := o.Want(loadgen.Item{SQL: "SELECT a FROM t", Strategy: "nope"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
