package serve

import (
	"encoding/json"
	"strings"
	"testing"
)

func validSpec() Spec {
	return Spec{
		Experiment: "flood",
		Graph: GraphSpec{
			Family: "random", N: 40, M: 120,
			Weights: WeightSpec{Kind: "uniform", Max: 32, Seed: 7},
			Seed:    7,
		},
		Trials: 3,
	}
}

func TestNormalizeDefaults(t *testing.T) {
	s := Spec{Experiment: "flood", Graph: GraphSpec{Family: "ring", N: 8}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Delay != "max" || s.Trials != 1 || s.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.Graph.Weights.Kind != "unit" {
		t.Fatalf("weight default not applied: %+v", s.Graph.Weights)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"experiment", func(s *Spec) { s.Experiment = "frobnicate" }, "unknown experiment"},
		{"family", func(s *Spec) { s.Graph.Family = "torus" }, "unknown graph family"},
		{"family missing", func(s *Spec) { s.Graph.Family = "" }, "graph family missing"},
		{"n too small", func(s *Spec) { s.Graph.N = 1 }, "needs n >= 2"},
		{"m too small", func(s *Spec) { s.Graph.M = 10 }, "m >= n-1"},
		{"delay", func(s *Spec) { s.Delay = "gaussian" }, "unknown delay model"},
		{"trials", func(s *Spec) { s.Trials = MaxTrials + 1 }, "trials"},
		{"root", func(s *Spec) { s.Root = 40 }, "root 40 out of range"},
		{"neg root", func(s *Spec) { s.Root = -1 }, "out of range"},
		{"weights", func(s *Spec) { s.Graph.Weights.Kind = "zipf" }, "unknown weight kind"},
		{"drop", func(s *Spec) { s.Faults = &FaultSpec{Drop: 1.5} }, "probabilities"},
		{"too big", func(s *Spec) { s.Graph.N = maxVertices + 1; s.Graph.M = maxVertices + 1 }, "too large"},
		{"neg timeout", func(s *Spec) { s.TimeoutMS = -1 }, "timeout_ms"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSpec()
			c.mut(&s)
			err := s.Normalize()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

// Substrate keys must identify graph content, not incidental spec
// fields: trials/seed/delay/faults don't affect the key, graph params
// do, and irrelevant family parameters are canonicalized away. The
// key bytes are pinned: journals and caches written while a sharded
// engine existed keyed the same substrates the same way. shards > 1
// no longer keys a distinct substrate; Normalize rejects it.
func TestSubstrateKey(t *testing.T) {
	base := validSpec()
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got, want := base.SubstrateKey(), "9a3a330651a404b214b04810a882686f9bfdab3719202d6d8ccdeeb7afaba101"; got != want {
		t.Errorf("substrate key %s, want %s", got, want)
	}
	sharded := validSpec()
	sharded.Shards = 4
	if err := sharded.Normalize(); err == nil || !strings.Contains(err.Error(), "sharded engine was removed") {
		t.Errorf("shards 4: Normalize err = %v, want the removal named", err)
	}
	key := func(mut func(*Spec)) string {
		s := validSpec()
		mut(&s)
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		return s.SubstrateKey()
	}
	same := map[string]func(*Spec){
		"trials":     func(s *Spec) { s.Trials = 99 },
		"seed":       func(s *Spec) { s.Seed = 42 },
		"delay":      func(s *Spec) { s.Delay = "uniform" },
		"faults":     func(s *Spec) { s.Faults = &FaultSpec{Drop: 0.1} },
		"experiment": func(s *Spec) { s.Experiment = "ghs" },
		"one shard":  func(s *Spec) { s.Shards = 1 }, // canonicalized to 0
	}
	for name, mut := range same {
		if k := key(mut); k != base.SubstrateKey() {
			t.Errorf("%s changed the substrate key", name)
		}
	}
	diff := map[string]func(*Spec){
		"n":          func(s *Spec) { s.Graph.N = 41 },
		"m":          func(s *Spec) { s.Graph.M = 121 },
		"graph seed": func(s *Spec) { s.Graph.Seed = 8 },
		"weights":    func(s *Spec) { s.Graph.Weights.Max = 64 },
		"family":     func(s *Spec) { s.Graph = GraphSpec{Family: "ring", N: 40} },
	}
	for name, mut := range diff {
		if k := key(mut); k == base.SubstrateKey() {
			t.Errorf("%s did NOT change the substrate key", name)
		}
	}
	// Irrelevant parameters are zeroed by normalization: a hard-family
	// spec keys the same whatever weight spec the caller left in.
	a := key(func(s *Spec) { s.Graph = GraphSpec{Family: "hard", N: 16} })
	b := key(func(s *Spec) {
		s.Graph = GraphSpec{Family: "hard", N: 16, Weights: WeightSpec{Kind: "uniform", Max: 9, Seed: 3}}
	})
	if a != b {
		t.Error("hard-family key depends on the (unused) weight spec")
	}
}

// Every family the spec schema names must build.
func TestGraphSpecBuildFamilies(t *testing.T) {
	specs := []GraphSpec{
		{Family: "path", N: 5},
		{Family: "ring", N: 5},
		{Family: "star", N: 5},
		{Family: "complete", N: 5},
		{Family: "grid", Rows: 3, Cols: 4},
		{Family: "random", N: 10, M: 20, Weights: WeightSpec{Kind: "pow2", Exp: 4, Seed: 2}, Seed: 3},
		{Family: "hard", N: 12},
		{Family: "heavychord", N: 12},
	}
	for _, gs := range specs {
		t.Run(gs.Family, func(t *testing.T) {
			if err := gs.normalize(); err != nil {
				t.Fatal(err)
			}
			g := gs.Build()
			if g.N() < 2 || !g.Connected() {
				t.Fatalf("family %s built a bogus graph (n=%d)", gs.Family, g.N())
			}
		})
	}
}

// The deadline is scheduling policy, not experiment identity: it must
// not perturb the substrate key, and a spec without one must keep its
// exact canonical JSON (timeout_ms is omitempty), so pre-deadline
// result bytes are untouched.
func TestTimeoutIsSchedulingPolicyOnly(t *testing.T) {
	plain, timed := validSpec(), validSpec()
	timed.TimeoutMS = 5000
	if err := plain.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := timed.Normalize(); err != nil {
		t.Fatal(err)
	}
	if plain.SubstrateKey() != timed.SubstrateKey() {
		t.Fatal("timeout_ms changed the substrate key")
	}
	b, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "timeout_ms") {
		t.Fatalf("timeoutless spec leaks timeout_ms into canonical JSON: %s", b)
	}
	b, err = json.Marshal(timed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"timeout_ms":5000`) {
		t.Fatalf("timed spec lost its timeout: %s", b)
	}
}
