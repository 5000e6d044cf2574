package lint

import "go/ast"

// AtomicMix bans the sync/atomic package-level functions
// (atomic.AddInt64(&s.n, 1), atomic.LoadUint32(&flag), ...). The word
// they are handed is an ordinary variable, so nothing stops another
// function from reading or writing it plainly, and that plain access
// races with the atomic side — the race detector only catches it when
// both sides collide under test. Typed atomics (atomic.Int64 and
// friends) cannot be accessed plainly, so requiring them keeps every
// atomic word atomic everywhere.
func AtomicMix() *Analyzer {
	return &Analyzer{
		Name: "atomicmix",
		Doc:  "no sync/atomic function calls: use typed atomics, which cannot be accessed plainly",
		Run:  runAtomicMix,
	}
}

func runAtomicMix(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if ok && importedPackage(p.Pkg.Info, sel.X) == "sync/atomic" {
				p.Reportf(call.Pos(), "atomic.%s on a plain word: use a typed atomic (atomic.Int64 & co.), which cannot also be accessed plainly", sel.Sel.Name)
			}
			return true
		})
	}
}
