// Package lockdiscipline flags the lock-across-machine-work bug class
// that bit KeepWarmCache in PR 2: a cache/registry mutex held while
// calling into machine work (a Platform boot/execute/release entry
// point, a Machine method, or anything in internal/sandbox) can
// deadlock against the memory-pressure reclaim path, which re-enters
// the lock holder from inside the machine. Methods of Platform itself
// are exempt — its mu IS the machine lock and is held across sandbox
// work by design.
//
// Two more rules ride along: a sync.Mutex/RWMutex reachable by value
// through a parameter or receiver is a copied lock, and a function that
// locks a mutex it never unlocks (no Unlock call, no defer) leaks the
// lock on every path.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"catalyzer/internal/analysis"
)

// machineWorkMethods are the *Platform entry points that perform
// machine work (boots, executions, releases, artifact builds).
var machineWorkMethods = map[string]bool{
	"Boot": true, "Invoke": true, "InvokeKeep": true,
	"ExecuteSandbox": true, "ReleaseSandbox": true,
	"PrepareImage": true, "PrepareTemplate": true,
	"RefreshImage": true, "BootRecover": true, "InvokeRecover": true,
	"InvokeKeepRecover": true, "SimulateBurst": true,
}

// Analyzer is the lockdiscipline invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "no machine work (Platform/Machine/sandbox calls) while holding a mutex, no locks copied by value, no lock without a matching unlock",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkValueLocks(pass, fd)
			if fd.Body == nil {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil
}

// checkValueLocks flags receivers and parameters that carry a sync lock
// by value.
func checkValueLocks(pass *analysis.Pass, fd *ast.FuncDecl) {
	check := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t, ok := pass.Info.Types[field.Type]
			if !ok {
				continue
			}
			if containsLock(t.Type, 0) {
				pass.Reportf(field.Pos(), "%s passes a lock by value: use a pointer", fd.Name.Name)
			}
		}
	}
	check(fd.Recv)
	check(fd.Type.Params)
}

// containsLock reports whether t holds a sync.Mutex/RWMutex by value
// (not behind a pointer), looking a few struct levels deep.
func containsLock(t types.Type, depth int) bool {
	if depth > 3 {
		return false
	}
	switch t := t.(type) {
	case *types.Named:
		if isSyncLock(t) {
			return true
		}
		return containsLock(t.Underlying(), depth+1)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsLock(t.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

func isSyncLock(named *types.Named) bool {
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// event is one lock-relevant occurrence inside a function body, in
// source order.
type event struct {
	pos  token.Pos
	kind int // eLock, eUnlock, eDeferUnlock, eMachineCall
	key  string
	what string // callee description, for eMachineCall
}

const (
	eLock = iota
	eUnlock
	eDeferUnlock
	eMachineCall
)

// checkBody runs a linear (source-order) lock-state scan: precise
// enough for straight-line lock/unlock bracketing, and deliberately
// conservative — a positional Unlock clears the held state even if it
// sits on a branch, so the scan under-reports rather than false-flags.
func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	recvName := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if t, ok := pass.Info.Types[fd.Recv.List[0].Type]; ok {
			recvName = namedTypeName(t.Type)
		}
	}
	// Platform (and Machine) methods are the machine-lock domain: their
	// mutex serializes machine work by design.
	machineDomain := recvName == "Platform" || recvName == "Machine"

	var events []event
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if key, kind, ok := lockOp(pass, n.Call); ok && (kind == eUnlock) {
				events = append(events, event{pos: n.Pos(), kind: eDeferUnlock, key: key})
				return false
			}
			// A deferred closure may unlock inside; scan it for
			// unlocks so they count as deferred.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if key, kind, ok := lockOp(pass, call); ok && kind == eUnlock {
							events = append(events, event{pos: n.Pos(), kind: eDeferUnlock, key: key})
						}
					}
					return true
				})
				return false
			}
		case *ast.CallExpr:
			if key, kind, ok := lockOp(pass, n); ok {
				events = append(events, event{pos: n.Pos(), kind: kind, key: key})
				return true
			}
			if !machineDomain {
				if what, ok := machineWork(pass, n); ok {
					events = append(events, event{pos: n.Pos(), kind: eMachineCall, what: what})
				}
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := map[string]bool{}       // locked and not yet positionally unlocked
	deferred := map[string]bool{}   // unlock deferred: held to function end
	locks := map[string]token.Pos{} // first Lock position per key
	unlocks := map[string]bool{}    // any Unlock or defer-Unlock seen
	for _, ev := range events {
		switch ev.kind {
		case eLock:
			held[ev.key] = true
			if _, ok := locks[ev.key]; !ok {
				locks[ev.key] = ev.pos
			}
		case eUnlock:
			held[ev.key] = false
			unlocks[ev.key] = true
		case eDeferUnlock:
			deferred[ev.key] = true
			unlocks[ev.key] = true
		case eMachineCall:
			for key, h := range held {
				if h {
					pass.Reportf(ev.pos, "%s called while %s is held: release the lock before machine work (PR 2 KeepWarm bug class)", ev.what, key)
				}
			}
			for key, d := range deferred {
				if d && !held[key] {
					pass.Reportf(ev.pos, "%s called while %s is held (deferred unlock): release the lock before machine work (PR 2 KeepWarm bug class)", ev.what, key)
				}
			}
		}
	}
	for key, pos := range locks {
		if !unlocks[key] {
			pass.Reportf(pos, "%s is locked but never unlocked in %s: every path must release it", key, fd.Name.Name)
		}
	}
}

// lockOp classifies m.Lock/RLock/Unlock/RUnlock calls on sync mutexes,
// returning a stable key naming the mutex expression.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (key string, kind int, ok bool) {
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	if !selOK {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = eLock
	case "Unlock", "RUnlock":
		kind = eUnlock
	default:
		return "", 0, false
	}
	t, tok := pass.Info.Types[sel.X]
	if !tok {
		return "", 0, false
	}
	typ := t.Type
	if ptr, isPtr := typ.(*types.Pointer); isPtr {
		typ = ptr.Elem()
	}
	named, isNamed := typ.(*types.Named)
	if !isNamed || !isSyncLock(named) {
		return "", 0, false
	}
	return types.ExprString(sel.X), kind, true
}

// machineWork reports whether call enters machine work: any function in
// a package named sandbox, any Machine method, or a Platform machine
// entry point.
func machineWork(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if fn.Pkg().Name() == "sandbox" {
		return "sandbox." + fn.Name(), true
	}
	switch analysis.ReceiverTypeName(fn) {
	case "Machine":
		return "Machine." + fn.Name(), true
	case "Platform":
		if machineWorkMethods[fn.Name()] {
			return "Platform." + fn.Name(), true
		}
	}
	return "", false
}

func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
