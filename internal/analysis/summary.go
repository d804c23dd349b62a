package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under the v2 analyzers: a
// module-local call graph plus one effect summary per declared
// function. Summaries are deliberately coarse — a handful of bits, no
// path or flow sensitivity — because the analyzers built on them
// (lockguard, ctxflow, hotpathtrans) only need "may this callee block /
// allocate / take another lock", never "when". Effects are computed
// per-body, then propagated to a fixed point over the call graph, so a
// blocking operation two calls deep is visible at every caller.
//
// Approximations, chosen to stay sound for this codebase's idioms:
//
//   - Function literals are opaque: a closure's body contributes
//     nothing to its *enclosing* function's summary (it may run on a
//     different goroutine, later, or never), and calls through
//     function values resolve to no summary. Spawn sites (`go ...`)
//     are examined separately by ctxflow.
//   - Interface method calls resolve to no summary; the few stdlib
//     interfaces whose calls matter (io.Writer.Write and friends) are
//     classified by a fixed table instead.
//   - Allocation sites audited with //costsense:alloc-ok do not count
//     toward a summary: the audit that excuses a cold path from
//     hotpathalloc also excuses callers that reach it transitively.

// Effects is a bit set of the behaviors a function may exhibit.
type Effects uint16

const (
	// EffAllocates: the body contains an unaudited allocating construct
	// (same definition as hotpathalloc's per-function check).
	EffAllocates Effects = 1 << iota
	// EffBlocksChan: may park the goroutine on control flow — channel
	// send/receive, select without default, range over a channel,
	// time.Sleep, WaitGroup/Cond.Wait.
	EffBlocksChan
	// EffBlocksIO: may block on stream I/O — writes/reads through io
	// interfaces, fmt.Fprint*, json Encoder/Decoder, HTTP server and
	// client calls.
	EffBlocksIO
	// EffSpawns: starts a goroutine.
	EffSpawns
	// EffAcquires: takes a sync.Mutex/RWMutex lock (Lock/RLock/TryLock).
	EffAcquires
	// EffTakesCtx: can observe cancellation — a context.Context or
	// *http.Request parameter, or a receiver whose struct carries a
	// context.Context field.
	EffTakesCtx
)

// Blocks reports whether the effects include any blocking kind.
func (e Effects) Blocks() bool { return e&(EffBlocksChan|EffBlocksIO) != 0 }

// String renders the effect set for diagnostics.
func (e Effects) String() string {
	var parts []string
	for _, p := range [...]struct {
		bit  Effects
		name string
	}{
		{EffAllocates, "allocates"},
		{EffBlocksChan, "blocks"},
		{EffBlocksIO, "does I/O"},
		{EffSpawns, "spawns"},
		{EffAcquires, "locks"},
	} {
		if e&p.bit != 0 {
			parts = append(parts, p.name)
		}
	}
	if len(parts) == 0 {
		return "pure"
	}
	return strings.Join(parts, ",")
}

// Summary is one function's computed effects and local call edges.
type Summary struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Direct covers the function's own body (closures excluded).
	Direct Effects
	// All is Direct plus everything reachable through module-local
	// callees, to a fixed point.
	All Effects
	// Hotpath records the //costsense:hotpath annotation.
	Hotpath bool
	// Calls lists the resolved module-local callees, position-ordered
	// and deduplicated.
	Calls []*types.Func

	// allocWitness is the function whose body holds the allocation that
	// set EffAllocates in All — itself for a direct allocation, else the
	// first (position-ordered) callee that reaches one.
	allocWitness *types.Func
}

// Summaries indexes the summaries of every function declared in a set
// of packages.
type Summaries struct {
	byFn map[*types.Func]*Summary
	all  []*Summary // deterministic order: package path, then position
}

// Of returns fn's summary, or nil for functions declared outside the
// summarized packages (stdlib, interface methods, func values).
func (s *Summaries) Of(fn *types.Func) *Summary {
	if s == nil || fn == nil {
		return nil
	}
	return s.byFn[fn]
}

// AllocWitness names the function whose body holds the allocation
// behind fn's EffAllocates, or nil.
func (s *Summaries) AllocWitness(fn *types.Func) *types.Func {
	if sum := s.Of(fn); sum != nil {
		return sum.allocWitness
	}
	return nil
}

// ComputeSummaries builds the call graph and effect summaries for
// every function declared in pkgs. tr, when non-nil, records the
// alloc-ok directives the allocation scan consults (they keep callee
// summaries clean, so they are live, not stale).
func ComputeSummaries(pkgs []*Package, tr *Tracker) *Summaries {
	s := &Summaries{byFn: make(map[*types.Func]*Summary)}
	for _, pkg := range pkgs {
		// The counting pass reuses hotpathalloc's body check verbatim, so
		// "allocates" means exactly what the direct analyzer enforces —
		// including alloc-ok audits.
		countPass := NewPass(Hotpathalloc, pkg)
		countPass.tracker = tr
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sum := &Summary{Fn: fn, Decl: fd, Pkg: pkg, Hotpath: isHotpath(fd)}
				before := len(countPass.diags)
				checkHotpathBody(countPass, fd)
				if len(countPass.diags) > before {
					sum.Direct |= EffAllocates
				}
				sum.Direct |= directEffects(pkg, fd)
				if takesContext(pkg, fd) {
					sum.Direct |= EffTakesCtx
				}
				sum.Calls = resolveCalls(pkg, fd)
				sum.All = sum.Direct
				s.byFn[fn] = sum
				s.all = append(s.all, sum)
			}
		}
	}
	s.propagate()
	return s
}

// propagate folds callee effects into callers until nothing changes.
// Effects only grow, so the fixed point is order-independent.
func (s *Summaries) propagate() {
	const inherited = EffAllocates | EffBlocksChan | EffBlocksIO | EffSpawns | EffAcquires
	for changed := true; changed; {
		changed = false
		for _, sum := range s.all {
			for _, callee := range sum.Calls {
				cs := s.byFn[callee]
				if cs == nil {
					continue
				}
				if add := cs.All & inherited &^ sum.All; add != 0 {
					sum.All |= add
					changed = true
				}
			}
		}
	}
	// Witnesses, in one deterministic final pass: the first callee (in
	// call order) that reaches an allocation, or the function itself.
	for _, sum := range s.all {
		if sum.All&EffAllocates == 0 {
			continue
		}
		if sum.Direct&EffAllocates != 0 {
			sum.allocWitness = sum.Fn
			continue
		}
		for _, callee := range sum.Calls {
			if cs := s.byFn[callee]; cs != nil && cs.All&EffAllocates != 0 {
				sum.allocWitness = cs.Fn
				if cs.allocWitness != nil {
					sum.allocWitness = cs.allocWitness
				}
				break
			}
		}
	}
}

// walkBody visits the nodes of fd's body that execute on fd's own
// goroutine as part of a call to fd: function literals are skipped
// (opaque), and `go` statements contribute only their spawn effect.
func walkBody(fd *ast.FuncDecl, visit func(ast.Node) bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return visit(n) && false
		}
		return visit(n)
	})
}

// directEffects computes the body's own blocking, spawning and
// lock-acquisition effects.
func directEffects(pkg *Package, fd *ast.FuncDecl) Effects {
	var eff Effects
	walkBody(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			eff |= EffSpawns
		case *ast.SendStmt:
			eff |= EffBlocksChan
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				eff |= EffBlocksChan
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				eff |= EffBlocksChan
			} else {
				// A select with default never parks; its comm clauses are
				// non-blocking sends/receives. Walk only the clause bodies.
				for _, c := range n.Body.List {
					for _, stmt := range c.(*ast.CommClause).Body {
						ast.Inspect(stmt, func(m ast.Node) bool {
							switch m.(type) {
							case *ast.FuncLit, *ast.GoStmt:
								return false
							}
							eff |= exprEffects(pkg, m)
							return true
						})
					}
				}
				return false
			}
		case *ast.RangeStmt:
			if t := typeOf(pkg, n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					eff |= EffBlocksChan
				}
			}
		case *ast.CallExpr:
			eff |= callEffects(pkg, n)
		}
		return true
	})
	return eff
}

// exprEffects classifies a single node (used for the non-blocking
// select walk, where channel syntax must not count).
func exprEffects(pkg *Package, n ast.Node) Effects {
	if call, ok := n.(*ast.CallExpr); ok {
		return callEffects(pkg, call)
	}
	return 0
}

// selectHasDefault reports whether the select carries a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingStdlib maps "pkgpath.Func" and "pkgpath.Recv.Method" of
// standard-library calls that may park or stall the goroutine.
var blockingStdlib = map[string]Effects{
	"time.Sleep":                     EffBlocksChan,
	"sync.WaitGroup.Wait":            EffBlocksChan,
	"sync.Cond.Wait":                 EffBlocksChan,
	"net/http.ListenAndServe":        EffBlocksIO,
	"net/http.Serve":                 EffBlocksIO,
	"net/http.Server.ListenAndServe": EffBlocksIO,
	"net/http.Server.Serve":          EffBlocksIO,
	"net/http.Server.ServeTLS":       EffBlocksIO,
	"net/http.Server.Shutdown":       EffBlocksIO,
	"net/http.Client.Do":             EffBlocksIO,
	"net/http.Client.Get":            EffBlocksIO,
	"net/http.Client.Post":           EffBlocksIO,
	"net/http.Client.Head":           EffBlocksIO,
	"encoding/json.Encoder.Encode":   EffBlocksIO,
	"encoding/json.Decoder.Decode":   EffBlocksIO,
	"os/exec.Cmd.Run":                EffBlocksIO,
	"os/exec.Cmd.Wait":               EffBlocksIO,
	"os/exec.Cmd.Output":             EffBlocksIO,
}

// ioInterfaceMethods are method names that mean stream I/O when called
// through an interface value (io.Writer, io.Reader, http.ResponseWriter,
// flushers): the dynamic type may be a network connection.
var ioInterfaceMethods = map[string]bool{
	"Write": true, "Read": true, "ReadFrom": true, "WriteTo": true, "Flush": true,
}

// fmtWriterFuncs are the fmt functions that stream to an io.Writer.
var fmtWriterFuncs = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}

// callEffects classifies one call's blocking/locking effects from the
// fixed stdlib tables. Module-local callees contribute through
// summaries instead; unknown calls contribute nothing.
func callEffects(pkg *Package, call *ast.CallExpr) Effects {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return 0
	}
	if eff, _, ok := stdlibCallClass(pkg, call, fn); ok {
		return eff
	}
	if isMutexAcquire(fn) {
		return EffAcquires
	}
	return 0
}

// stdlibCallClass looks a resolved callee up in the blocking tables,
// returning a human-readable label for diagnostics.
func stdlibCallClass(pkg *Package, call *ast.CallExpr, fn *types.Func) (Effects, string, bool) {
	p := fn.Pkg()
	if p == nil {
		return 0, "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			key := p.Path() + "." + named.Obj().Name() + "." + fn.Name()
			if eff, ok := blockingStdlib[key]; ok {
				return eff, key, true
			}
		}
		// Interface-dispatched I/O: w.Write(...) where w is an io.Writer,
		// http.ResponseWriter, or any other stream interface.
		if types.IsInterface(recv) && ioInterfaceMethods[fn.Name()] {
			return EffBlocksIO, "interface " + fn.Name(), true
		}
		return 0, "", false
	}
	key := p.Path() + "." + fn.Name()
	if eff, ok := blockingStdlib[key]; ok {
		return eff, key, true
	}
	if p.Path() == "fmt" && fmtWriterFuncs[fn.Name()] {
		return EffBlocksIO, key, true
	}
	return 0, "", false
}

// isMutexAcquire matches (*sync.Mutex).Lock/TryLock and the RWMutex
// variants. isMutexRelease matches the unlocks.
func isMutexAcquire(fn *types.Func) bool {
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return isSyncMutexMethod(fn)
	}
	return false
}

func isMutexRelease(fn *types.Func) bool {
	switch fn.Name() {
	case "Unlock", "RUnlock":
		return isSyncMutexMethod(fn)
	}
	return false
}

func isSyncMutexMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// takesContext reports whether fd can observe cancellation: a
// context.Context or *http.Request parameter, or a receiver struct
// holding a context.Context field.
func takesContext(pkg *Package, fd *ast.FuncDecl) bool {
	sig, _ := objOf(pkg, fd.Name).(*types.Func)
	if sig == nil {
		return false
	}
	st, _ := sig.Type().(*types.Signature)
	if st == nil {
		return false
	}
	for i := 0; i < st.Params().Len(); i++ {
		if isCtxOrRequest(st.Params().At(i).Type()) {
			return true
		}
	}
	if recv := st.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if strct, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < strct.NumFields(); i++ {
				if isContextType(strct.Field(i).Type()) {
					return true
				}
			}
		}
	}
	return false
}

func isCtxOrRequest(t types.Type) bool {
	if isContextType(t) {
		return true
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isNamed(ptr.Elem(), "net/http", "Request")
}

// isContextType matches context.Context.
func isContextType(t types.Type) bool {
	return isNamed(t, "context", "Context")
}

func isNamed(t types.Type, path, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}

// resolveCalls collects fd's resolved callees — the call-graph edges —
// in position order, deduplicated. Calls inside closures and `go`
// statements are excluded (walkBody's contract).
func resolveCalls(pkg *Package, fd *ast.FuncDecl) []*types.Func {
	var calls []*types.Func
	seen := make(map[*types.Func]bool)
	walkBody(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg, call)
		if fn != nil && !seen[fn] {
			seen[fn] = true
			calls = append(calls, fn)
		}
		return true
	})
	return calls
}

// calleeFunc resolves a call to the function or method it invokes,
// without needing a Pass. The result is the *declared* object: a method
// selected through an instantiated generic type (w.work on a
// *Workers[S]) is a per-instantiation copy, and summaries, annotations
// and the call graph are all keyed by declaration.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if fn, ok := objOf(pkg, id).(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

func objOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

func typeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := objOf(pkg, id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// FuncsInOrder returns the summarized functions sorted by package path
// then source position — the deterministic iteration order for
// whole-module reports.
func (s *Summaries) FuncsInOrder() []*Summary {
	out := append([]*Summary(nil), s.all...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pkg.Path != out[j].Pkg.Path {
			return out[i].Pkg.Path < out[j].Pkg.Path
		}
		return out[i].Decl.Pos() < out[j].Decl.Pos()
	})
	return out
}
