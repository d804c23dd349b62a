package analysis

// All returns the costsense-vet analyzer suite in reporting order:
// the determinism pair, the allocation pair (intra- then
// interprocedural), the retention check, and the v2
// concurrency/lifecycle trio built on the effect summaries.
func All() []*Analyzer {
	return []*Analyzer{
		Detmap, Detsource,
		Hotpathalloc, Hotpathtrans,
		Arenaref,
		Lockguard, Ctxflow, Errflow,
	}
}

// Check runs every applicable analyzer over the packages and returns
// the combined diagnostics in package, then position, order. Effect
// summaries are computed once over the loader's full module-internal
// closure — not just the requested packages — so a callee's blocking
// or allocating behaviour is visible across package boundaries. tr,
// when non-nil, records every directive the run consults (for -audit's
// stale detection).
func Check(l *Loader, pkgs []*Package, tr *Tracker) []Diagnostic {
	sum := ComputeSummaries(l.Loaded(), tr)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range All() {
			if !a.InScope(l.ModulePath, pkg.Path) {
				continue
			}
			if a.Match != nil && !a.Match(l.ModulePath, pkg.Path) {
				continue
			}
			diags = append(diags, RunWith(a, pkg, sum, tr)...)
		}
	}
	return diags
}
