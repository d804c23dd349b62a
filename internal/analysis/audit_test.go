package analysis_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"costsense/internal/analysis"
)

// auditModule runs the full suite over a fresh load of the module and
// returns the audit report plus its JSON rendering.
func auditModule(t *testing.T) (*analysis.AuditReport, []byte) {
	t.Helper()
	moduleRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	rels, err := loader.PackageDirs()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPackages(rels)
	if err != nil {
		t.Fatal(err)
	}
	tracker := analysis.NewTracker()
	if diags := analysis.Check(loader, pkgs, tracker); len(diags) != 0 {
		t.Fatalf("audit needs a clean tree, got %d findings (first: %s)", len(diags), diags[0])
	}
	report := analysis.BuildAudit(loader, pkgs, tracker)
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return report, out
}

// TestSelfHostAudit is the audit gate's regression check: the
// repository's own directive inventory must be problem-free (no stale,
// unjustified or unknown directives), must contain the verbs the tree
// is known to rely on, and must serialize byte-identically across two
// independent loads — the nightly CI job diffs these artifacts.
func TestSelfHostAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module audit in -short mode (CI's nightly job covers it)")
	}
	report, out := auditModule(t)
	if report.Problems() {
		t.Errorf("audit problems on the clean tree: stale=%d unjustified=%d unknown=%d",
			report.Stale, report.Unjustified, report.Unknown)
		for _, d := range report.Directives {
			if d.Stale || d.Unjustified || d.Kind == "unknown" {
				t.Errorf("  %s:%d //costsense:%s (stale=%v unjustified=%v kind=%s)",
					d.File, d.Line, d.Verb, d.Stale, d.Unjustified, d.Kind)
			}
		}
	}
	for _, verb := range []string{"nondet-ok", "alloc-ok", "ctx-ok", "err-ok", "lock-ok"} {
		if report.ByVerb[verb] == 0 {
			t.Errorf("expected at least one %s directive in the tree", verb)
		}
	}
	if report.ByVerb["hotpath"] != 0 {
		t.Errorf("hotpath markers must be excluded from the audit inventory, got %d", report.ByVerb["hotpath"])
	}

	_, again := auditModule(t)
	if !bytes.Equal(out, again) {
		t.Errorf("audit JSON is not byte-deterministic across loads:\nfirst:\n%s\nsecond:\n%s", out, again)
	}
}

// TestAuditProblems checks that the three problem classes are detected
// on a planted package: a suppression nothing consults is stale, a
// bare suppression is unjustified, and an unrecognized verb is
// unknown.
func TestAuditProblems(t *testing.T) {
	moduleRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "audit"), "costsense-vet.test/audit")
	if err != nil {
		t.Fatal(err)
	}
	tracker := analysis.NewTracker()
	pkgs := []*analysis.Package{pkg}
	analysis.Check(loader, pkgs, tracker)
	report := analysis.BuildAudit(loader, pkgs, tracker)

	if !report.Problems() {
		t.Fatal("planted problems not detected")
	}
	if report.Stale < 2 { // the nondet-ok and the bare alloc-ok are both unconsulted
		t.Errorf("stale = %d, want >= 2", report.Stale)
	}
	if report.Unjustified != 1 {
		t.Errorf("unjustified = %d, want 1 (the bare alloc-ok)", report.Unjustified)
	}
	if report.Unknown != 1 {
		t.Errorf("unknown = %d, want 1 (frobnicate)", report.Unknown)
	}
	byVerb := make(map[string]analysis.DirectiveRecord)
	for _, d := range report.Directives {
		byVerb[d.Verb] = d
	}
	if d := byVerb["nondet-ok"]; !d.Stale || d.Unjustified {
		t.Errorf("nondet-ok: stale=%v unjustified=%v, want stale only", d.Stale, d.Unjustified)
	}
	if d := byVerb["alloc-ok"]; !d.Stale || !d.Unjustified {
		t.Errorf("alloc-ok: stale=%v unjustified=%v, want both", d.Stale, d.Unjustified)
	}
	if d := byVerb["frobnicate"]; d.Kind != "unknown" {
		t.Errorf("frobnicate kind = %q, want unknown", d.Kind)
	}
}
