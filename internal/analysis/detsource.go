package analysis

import (
	"go/ast"
	"go/types"
)

// Detsource forbids ambient nondeterminism sources in the
// deterministic core: the wall clock (time.Now and friends), the
// globally-seeded math/rand and math/rand/v2 top-level functions, and
// scheduler/host queries (runtime.GOMAXPROCS, NumCPU, NumGoroutine)
// whose answers vary across machines. Simulator and protocol code must
// draw randomness from a seeded source — the engine's keyed draws
// (sim.WithSeed) or an explicitly seeded generator — so a fixed seed
// replays the exact event sequence — the property every golden Stats
// test and every figure in EXPERIMENTS.md depends on.
//
// rand.New, rand.NewSource and the other constructor functions stay
// legal: building an explicitly-seeded generator is the sanctioned
// pattern, using the shared global one is the bug.
var Detsource = &Analyzer{
	Name:     "detsource",
	Doc:      "forbids wall clock, global RNG and scheduler queries in deterministic packages",
	Suppress: "nondet-ok",
	Scoped:   true,
	Run:      runDetsource,
}

// randConstructors are the math/rand functions that build explicit
// generators rather than touching the package-global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// forbiddenFuncs maps package path -> function name -> diagnostic.
var forbiddenFuncs = map[string]map[string]string{
	"time": {
		"Now":       "time.Now reads the wall clock; simulated time is ctx.Now()",
		"Since":     "time.Since reads the wall clock; simulated time is ctx.Now()",
		"Until":     "time.Until reads the wall clock; simulated time is ctx.Now()",
		"Sleep":     "time.Sleep stalls on the wall clock; simulated delay is a scheduled event",
		"After":     "time.After fires on the wall clock; simulated delay is a scheduled event",
		"Tick":      "time.Tick fires on the wall clock (and leaks its ticker); simulated delay is a scheduled event",
		"NewTicker": "time.NewTicker fires on the wall clock; simulated delay is a scheduled event",
		"NewTimer":  "time.NewTimer fires on the wall clock; simulated delay is a scheduled event",
		"AfterFunc": "time.AfterFunc fires on the wall clock; simulated delay is a scheduled event",
	},
	"runtime": {
		"GOMAXPROCS":   "runtime.GOMAXPROCS varies across hosts; results must not depend on worker count",
		"NumCPU":       "runtime.NumCPU varies across hosts; results must not depend on worker count",
		"NumGoroutine": "runtime.NumGoroutine depends on scheduler state",
	},
}

func runDetsource(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.CalleeFunc(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			// Only package-level functions: a method on an explicit
			// *rand.Rand or time.Time value is fine.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			path, name := fn.Pkg().Path(), fn.Name()
			switch path {
			case "math/rand", "math/rand/v2":
				if !randConstructors[name] {
					pass.Report(call.Pos(),
						"global %s.%s uses shared, unseeded state; use a seeded source (sim.WithSeed, or rand.New over an explicit seed)",
						pathBase(path), name)
				}
			default:
				if msg, ok := forbiddenFuncs[path][name]; ok {
					pass.Report(call.Pos(), "%s (audit with %snondet-ok <why> if genuinely order-independent)", msg, Directive)
				}
			}
			return true
		})
	}
}

func pathBase(path string) string {
	if path == "math/rand/v2" {
		return "rand/v2"
	}
	return "rand"
}
