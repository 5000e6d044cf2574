package lint

import (
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture loader is shared across tests so the stdlib is
// type-checked once per test process.
var (
	loaderOnce sync.Once
	shared     *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { shared, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return shared
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	ld := fixtureLoader(t)
	pkg, err := ld.Load(ld.ModulePath() + "/internal/lint/testdata/src/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// want is one golden expectation: a `// want `+"`regex`"+“ comment in a
// fixture demands a diagnostic on its line matching the regex (against
// "[rule] message").
type want struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want `([^`]*)`")

func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var ws []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					ws = append(ws, &want{line: pkg.Fset.Position(c.Pos()).Line, re: re})
				}
			}
		}
	}
	return ws
}

// checkGolden runs the analyzers over the fixture and matches every
// diagnostic against the `// want` annotations, both ways: no unexpected
// findings, no unmatched expectations.
func checkGolden(t *testing.T, pkg *Package, analyzers ...*Analyzer) Result {
	t.Helper()
	res := Run([]*Package{pkg}, analyzers)
	wants := collectWants(t, pkg)
	for _, d := range res.Diags {
		full := "[" + d.Rule + "] " + d.Msg
		matched := false
		for _, w := range wants {
			if !w.matched && w.line == d.Pos.Line && w.re.MatchString(full) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("line %d: want diagnostic matching %q, got none", w.line, w.re)
		}
	}
	return res
}

func TestDetRandFixture(t *testing.T) {
	pkg := loadFixture(t, "detrand")
	res := checkGolden(t, pkg, DetRand([]string{pkg.Path}))
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
}

func TestMapOrderFixture(t *testing.T) {
	pkg := loadFixture(t, "maporder")
	res := checkGolden(t, pkg, MapOrder(nil))
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
}

func TestPoolSafeFixture(t *testing.T) {
	pkg := loadFixture(t, "poolsafe")
	res := checkGolden(t, pkg, PoolSafe())
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
}

func TestPoolSafeArenaFixture(t *testing.T) {
	pkg := loadFixture(t, "poolsafearena")
	res := checkGolden(t, pkg, PoolSafe())
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
}

func TestPoolSafeBatchFixture(t *testing.T) {
	pkg := loadFixture(t, "poolsafebatch")
	res := checkGolden(t, pkg, PoolSafe())
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
}

// TestPoolSafeFlowFixture pins the flow-sensitive upgrades: a
// release-then-use across a branch join and leaks on early-return
// paths, both of which the old flow-insensitive counter missed.
func TestPoolSafeFlowFixture(t *testing.T) {
	pkg := loadFixture(t, "poolsafeflow")
	res := checkGolden(t, pkg, PoolSafe())
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
}

func TestFloatEqFixture(t *testing.T) {
	pkg := loadFixture(t, "floateq")
	res := checkGolden(t, pkg, FloatEq())
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
}

func TestDurIOFixture(t *testing.T) {
	pkg := loadFixture(t, "durio")
	res := checkGolden(t, pkg, DurIO([]string{pkg.Path}))
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
}

// TestGatewayFixture runs the two rule sets that cover the real
// internal/gateway package (detrand: injected clock/RNG; durio: checked
// relay writes and body closes) over a gateway-shaped fixture.
func TestGatewayFixture(t *testing.T) {
	pkg := loadFixture(t, "gateway")
	res := checkGolden(t, pkg, DetRand([]string{pkg.Path}), DurIO([]string{pkg.Path}))
	if len(res.Diags) < 4 {
		t.Fatalf("fixture must demonstrate >= 4 true positives (2 per rule), got %d", len(res.Diags))
	}
}

func TestLockBalFixture(t *testing.T) {
	pkg := loadFixture(t, "lockbal")
	res := checkGolden(t, pkg, LockBal())
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1 (the documented lock hand-off)", res.Suppressed)
	}
}

func TestGoLeakFixture(t *testing.T) {
	pkg := loadFixture(t, "goleak")
	res := checkGolden(t, pkg, GoLeak([]string{pkg.Path}))
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1 (the documented ack handshake)", res.Suppressed)
	}
}

func TestCtxFlowFixture(t *testing.T) {
	pkg := loadFixture(t, "ctxflow")
	res := checkGolden(t, pkg, CtxFlow([]string{pkg.Path}))
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1 (the documented audit write)", res.Suppressed)
	}
}

func TestAtomicMixFixture(t *testing.T) {
	pkg := loadFixture(t, "atomicmix")
	res := checkGolden(t, pkg, AtomicMix())
	if len(res.Diags) < 2 {
		t.Fatalf("fixture must demonstrate >= 2 true positives, got %d", len(res.Diags))
	}
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1 (the documented legacy store)", res.Suppressed)
	}
}

// TestIgnoreSuppression proves //lint:ignore suppresses exactly one
// diagnostic: the annotated float comparison is silenced and counted,
// the identical un-annotated one is still reported.
func TestIgnoreSuppression(t *testing.T) {
	pkg := loadFixture(t, "ignores")
	res := checkGolden(t, pkg, FloatEq())
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want exactly 1", res.Suppressed)
	}
	if len(res.SuppressedDiags) != 1 {
		t.Fatalf("SuppressedDiags = %v, want exactly the silenced finding (for -json auditing)", res.SuppressedDiags)
	}
	if d := res.SuppressedDiags[0]; d.Rule != "floateq" || d.Pos.Line == 0 {
		t.Errorf("SuppressedDiags[0] = %v, want the positioned floateq finding", d)
	}
	if len(res.Diags) != 1 {
		t.Errorf("kept diagnostics = %d, want exactly 1 (the un-annotated comparison)", len(res.Diags))
	}
}

// TestDirectiveHygiene: a directive without a reason is malformed (and
// suppresses nothing), a directive that matches nothing is unused; both
// are findings under the "lint" rule.
func TestDirectiveHygiene(t *testing.T) {
	pkg := loadFixture(t, "badignore")
	res := Run([]*Package{pkg}, []*Analyzer{FloatEq()})
	counts := map[string]int{}
	for _, d := range res.Diags {
		counts[d.Rule]++
	}
	if counts["floateq"] != 1 {
		t.Errorf("floateq findings = %d, want 1 (malformed directive must not suppress)", counts["floateq"])
	}
	if counts["lint"] != 2 {
		t.Errorf("lint findings = %d, want 2 (one malformed + one unused directive)", counts["lint"])
	}
	if res.Suppressed != 0 {
		t.Errorf("Suppressed = %d, want 0", res.Suppressed)
	}
}

// TestEveryAnalyzerHasFixtures is the meta-gate for future analyzers:
// every rule registered in DefaultAnalyzers must ship a fixture package
// named after it (testdata/src/<rule>) demonstrating at least two true
// positives. A new analyzer cannot land fixture-less.
func TestEveryAnalyzerHasFixtures(t *testing.T) {
	ld := fixtureLoader(t)
	suite := DefaultAnalyzers(ld.ModulePath())
	if len(suite) != 9 {
		t.Fatalf("DefaultAnalyzers = %d rules, want 9 (update this test when adding rules)", len(suite))
	}
	for _, az := range suite {
		az := az
		t.Run(az.Name, func(t *testing.T) {
			pkg := loadFixture(t, az.Name) // fails the test if the fixture package is missing
			res := Run([]*Package{pkg}, []*Analyzer{fixtureScoped(t, az.Name, pkg.Path)})
			if n := len(res.Diags); n < 2 {
				t.Errorf("fixture %s demonstrates %d true positives, want >= 2", az.Name, n)
			}
			if wants := collectWants(t, pkg); len(wants) < 2 {
				t.Errorf("fixture %s carries %d `// want` annotations, want >= 2", az.Name, len(wants))
			}
		})
	}
}

// fixtureScoped rebuilds one analyzer scoped to a fixture package (the
// default suite's package lists name the real tree, not testdata).
func fixtureScoped(t *testing.T, name, path string) *Analyzer {
	t.Helper()
	scope := []string{path}
	switch name {
	case "detrand":
		return DetRand(scope)
	case "maporder":
		return MapOrder(nil)
	case "poolsafe":
		return PoolSafe()
	case "floateq":
		return FloatEq()
	case "durio":
		return DurIO(scope)
	case "lockbal":
		return LockBal()
	case "goleak":
		return GoLeak(scope)
	case "ctxflow":
		return CtxFlow(scope)
	case "atomicmix":
		return AtomicMix()
	}
	t.Fatalf("no fixture constructor for analyzer %q: add one here and a testdata/src/%s package", name, name)
	return nil
}

// TestSelectAnalyzers: unknown rule names fail loudly, listing the
// valid rules; known names filter in suite order.
func TestSelectAnalyzers(t *testing.T) {
	all := DefaultAnalyzers("repro")
	got, err := SelectAnalyzers(all, []string{"ctxflow", "poolsafe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "poolsafe" || got[1].Name != "ctxflow" {
		var names []string
		for _, az := range got {
			names = append(names, az.Name)
		}
		t.Fatalf("SelectAnalyzers = %v, want [poolsafe ctxflow] in suite order", names)
	}
	_, err = SelectAnalyzers(all, []string{"lockbal", "nosuchrule"})
	if err == nil {
		t.Fatal("SelectAnalyzers accepted an unknown rule name")
	}
	for _, want := range []string{"nosuchrule", "lockbal", "poolsafe", "atomicmix"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q (must list valid rules)", err, want)
		}
	}
}

// TestAnalyzerScoping: package-scoped analyzers stay silent outside
// their configured package sets.
func TestAnalyzerScoping(t *testing.T) {
	pkg := loadFixture(t, "maporder")
	if res := Run([]*Package{pkg}, []*Analyzer{DetRand([]string{"repro/internal/tensor"})}); len(res.Diags) != 0 {
		t.Errorf("detrand ran outside its package set: %v", res.Diags)
	}
	if res := Run([]*Package{pkg}, []*Analyzer{MapOrder([]string{pkg.Path})}); len(res.Diags) != 0 {
		t.Errorf("maporder ran inside an excluded package: %v", res.Diags)
	}
}

// TestLoadPatternsSkipsTestdata: pattern expansion must never descend
// into testdata (the fixtures deliberately violate every rule).
func TestLoadPatternsSkipsTestdata(t *testing.T) {
	ld := fixtureLoader(t)
	pkgs, err := ld.LoadPatterns([]string{"./internal/lint/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != ld.ModulePath()+"/internal/lint" {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.Path)
		}
		t.Fatalf("LoadPatterns(./internal/lint/...) = %v, want just internal/lint", got)
	}
}
