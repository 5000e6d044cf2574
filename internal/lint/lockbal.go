package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockBal checks mutex discipline flow-sensitively over the function
// CFG, for sync.Mutex and sync.RWMutex receivers:
//
//   - every path from a Lock (or RLock) must reach a matching Unlock
//     (RUnlock) or have a deferred unlock armed before returning;
//   - no path may Unlock a mutex it does not hold (double unlock), or
//     Lock one it may already hold (self-deadlock);
//   - RLock must pair with RUnlock, never Unlock (and vice versa).
//
// Mutex copies are go vet's copylocks check, which the test gate runs
// over the whole module.
//
// The analysis only tracks lock paths whose Lock appears in the
// function being checked: lock-helper methods that acquire on behalf of
// a caller are visible as the Lock site, and functions that merely
// Unlock state locked elsewhere are not second-guessed. TryLock'd
// mutexes are untracked (holding depends on the boolean result, which
// the block-level CFG does not refine).
func LockBal() *Analyzer {
	return &Analyzer{
		Name: "lockbal",
		Doc:  "Lock/Unlock balanced on every path incl. defer; RLock pairs with RUnlock",
		Run:  runLockBal,
	}
}

// Lock flow states per lock path (write and read sides tracked as
// separate keys, "path:W" and "path:R").
const (
	lHeld      uint8 = 1 << iota // the lock may be held on this path
	lDeferDrop                   // a deferred unlock is armed on this path
	lWasHeld                     // the lock has been held at some point on this path
)

// lockOp classifies one mutex method call.
type lockOp struct {
	key     string // canonical path + ":W" or ":R"
	base    string // canonical path without the side suffix
	acquire bool
	read    bool
	pos     token.Pos
}

func runLockBal(p *Pass) {
	forEachFuncBody(p.Pkg, func(decl *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
		checkLockFunc(p, body)
	})
}

func checkLockFunc(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info

	// Pre-pass: find every mutex op directly in this body (nested
	// literals are their own universe) and decide which lock paths to
	// track: those acquired here, minus any touched by TryLock and any
	// that mix RLock with Unlock (reported once, syntactically, since
	// the pairing mistake is independent of flow).
	type sides struct {
		lockW, lockR, unlockW, unlockR bool
		try                            bool
		firstMix                       token.Pos
		mixMsg                         string
	}
	paths := map[string]*sides{}
	inspectNoFuncLit(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); !ok {
			return true
		}
		op := classifyLockOp(info, n)
		if op == nil {
			return true
		}
		s := paths[op.base]
		if s == nil {
			s = &sides{}
			paths[op.base] = s
		}
		switch {
		case op.acquire && op.read:
			s.lockR = true
		case op.acquire:
			s.lockW = true
		case op.read:
			s.unlockR = true
		default:
			s.unlockW = true
		}
		if call, ok := callOf(n); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "TryLock" || sel.Sel.Name == "TryRLock") {
				s.try = true
			}
		}
		return true
	})

	tracked := map[string]bool{}
	for base, s := range paths {
		if s.try {
			continue
		}
		if s.lockR && s.unlockW && !s.lockW {
			// RLock paired with Unlock: releasing a write lock that was
			// never taken. Report at the first unlock.
			reportPairingMix(p, info, body, base, "Unlock", "RLock", "RUnlock")
			continue
		}
		if s.lockW && s.unlockR && !s.lockR {
			reportPairingMix(p, info, body, base, "RUnlock", "Lock", "Unlock")
			continue
		}
		if s.lockW {
			tracked[base+":W"] = true
		}
		if s.lockR {
			tracked[base+":R"] = true
		}
	}
	if len(tracked) == 0 {
		return
	}

	cfg := buildCFG(body, info)
	analysis := &flowAnalysis{
		transfer: func(n ast.Node, f flowFacts) {
			if _, ok := n.(endMarker); ok {
				return
			}
			if d, ok := n.(*ast.DeferStmt); ok {
				for _, op := range deferredLockOps(info, d) {
					if !op.acquire && tracked[op.key] {
						f[op.key] |= lDeferDrop
					}
				}
				return
			}
			inspectNoFuncLit(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.CallExpr); !ok {
					return true
				}
				op := classifyLockOp(info, m)
				if op == nil || !tracked[op.key] {
					return true
				}
				if op.acquire {
					f[op.key] |= lHeld | lWasHeld
				} else {
					f[op.key] &^= lHeld
				}
				return true
			})
		},
		check: func(n ast.Node, f flowFacts) {
			reportHeld := func(pos token.Pos) {
				for key, st := range f {
					if st&lHeld != 0 && st&lDeferDrop == 0 {
						p.Reportf(pos, "%s may still be held on this return path: unlock before returning or defer the unlock", describeLockKey(key))
					}
				}
			}
			switch m := n.(type) {
			case endMarker:
				reportHeld(m.Rbrace)
				return
			case *ast.ReturnStmt:
				reportHeld(m.Pos())
				return
			case *ast.DeferStmt:
				return
			}
			inspectNoFuncLit(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.CallExpr); !ok {
					return true
				}
				op := classifyLockOp(info, m)
				if op == nil || !tracked[op.key] {
					return true
				}
				st := f[op.key]
				if op.acquire && st&lHeld != 0 {
					p.Reportf(op.pos, "%s may already be held here: locking again deadlocks this goroutine", describeLockKey(op.key))
				}
				if !op.acquire && st&lWasHeld != 0 && st&lHeld == 0 && st&lDeferDrop == 0 {
					p.Reportf(op.pos, "%s is not held on some path reaching this unlock: double unlock panics at runtime", describeLockKey(op.key))
				}
				return true
			})
		},
	}
	analysis.run(cfg, flowFacts{})
}

// classifyLockOp recognizes x.Lock/Unlock/RLock/RUnlock calls on
// sync.Mutex / sync.RWMutex (directly or behind a pointer) appearing as
// expression statements or bare call expressions.
func classifyLockOp(info *types.Info, n ast.Node) *lockOp {
	call, ok := callOf(n)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	var acquire, read bool
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		acquire = true
	case "RLock", "TryRLock":
		acquire, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return nil
	}
	if !isSyncMutex(info.TypeOf(sel.X)) {
		return nil
	}
	base := canonicalLockPath(info, sel.X)
	if base == "" {
		return nil
	}
	side := ":W"
	if read {
		side = ":R"
	}
	return &lockOp{key: base + side, base: base, acquire: acquire, read: read, pos: call.Pos()}
}

func callOf(n ast.Node) (*ast.CallExpr, bool) {
	switch m := n.(type) {
	case *ast.CallExpr:
		return m, true
	case *ast.ExprStmt:
		call, ok := m.X.(*ast.CallExpr)
		return call, ok
	}
	return nil, false
}

// isSyncMutex reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// canonicalLockPath renders a stable per-function key for the mutex
// expression: the root identifier's object (by declaration position, so
// shadowing cannot conflate two locks) followed by the field path.
// Index expressions and call results yield "" (untrackable).
func canonicalLockPath(info *types.Info, expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return ""
		}
		return fmt.Sprintf("%s@%d", e.Name, obj.Pos())
	case *ast.SelectorExpr:
		base := canonicalLockPath(info, e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return canonicalLockPath(info, e.X)
	case *ast.StarExpr:
		return canonicalLockPath(info, e.X)
	}
	return ""
}

// describeLockKey turns "mu@123.statMu:R" back into a human-readable
// "read lock statMu".
func describeLockKey(key string) string {
	side := "lock"
	if n := len(key); n > 2 && key[n-2] == ':' {
		if key[n-1] == 'R' {
			side = "read lock"
		}
		key = key[:n-2]
	}
	// Drop the @pos disambiguator from the root segment.
	name := key
	for i := 0; i < len(key); i++ {
		if key[i] == '@' {
			j := i
			for j < len(key) && key[j] != '.' {
				j++
			}
			name = key[:i] + key[j:]
			break
		}
	}
	return side + " " + name
}

// deferredLockOps lists the lock ops a defer statement performs at
// function exit: a direct deferred call or ops inside a deferred
// literal's body.
func deferredLockOps(info *types.Info, d *ast.DeferStmt) []*lockOp {
	var out []*lockOp
	if op := classifyLockOp(info, d.Call); op != nil {
		out = append(out, op)
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if op := classifyLockOp(info, n); op != nil {
				out = append(out, op)
			}
			return true
		})
	}
	return out
}

// reportPairingMix reports the first wrongUnlock call on base.
func reportPairingMix(p *Pass, info *types.Info, body *ast.BlockStmt, base, wrongUnlock, lockName, rightUnlock string) {
	inspectNoFuncLit(body, func(n ast.Node) bool {
		op := classifyLockOp(info, n)
		if op == nil || op.base != base || op.acquire {
			return true
		}
		call, _ := callOf(n)
		sel := call.Fun.(*ast.SelectorExpr)
		if sel.Sel.Name != wrongUnlock {
			return true
		}
		p.Reportf(op.pos, "%s released with %s but acquired with %s: use %s", describeLockKey(base), wrongUnlock, lockName, rightUnlock)
		return false
	})
}
