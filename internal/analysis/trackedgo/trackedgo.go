// Package trackedgo forbids bare `go` statements in library packages.
//
// The platform's shutdown contract is that Close drains every piece of
// self-healing work, and its determinism contract is that such work
// charges the virtual clock at the same point in every same-seed run.
// Both hold because library code starts no goroutine: background work
// is queued with Supervisor.Defer and runs on the calling goroutine at
// the next Poll, or at Close. A bare `go` statement escapes that queue
// — the goroutine can outlive Close, race teardown (unmap image frames,
// poison the journal mid-write), and under virtual time it charges the
// machine clock wherever the Go scheduler happens to run it.
//
// Exempt:
//
//   - package main (a binary's top-level loop owns its own lifetime;
//     cmd/catalyzerd's signal pump has nothing to drain into);
//   - anything carrying //lint:allow trackedgo <reason>.
package trackedgo

import (
	"go/ast"

	"catalyzer/internal/analysis"
)

// Analyzer is the tracked-goroutine invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "trackedgo",
	Doc:  "library packages must not start goroutines; queue background work with the supervisor's Defer so Poll runs it deterministically and Close drains it",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			pass.Reportf(gs.Pos(), "bare go statement in a library package: the goroutine escapes the supervisor's queue, can outlive Close and charges virtual time at a scheduler-dependent point; queue the work with the supervisor's Defer")
			return true
		})
	}
	return nil
}
