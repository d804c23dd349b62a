// Package serve is the experiment service behind `costsense serve`: a
// long-running HTTP server that accepts experiment specs, schedules
// them on a bounded job queue with backpressure, runs their trials on
// the harness worker pool with pooled per-worker simulator state, and
// caches immutable substrates (generated graphs plus their derived
// artifacts — 𝓔 and 𝓥) in a content-addressed LRU store, so a
// thousand-trial sweep builds its substrate once.
//
// Results are a pure function of the spec: two submissions of the same
// spec return byte-identical result JSON, whether or not the second
// was served from the substrate cache. See DESIGN.md, "Experiment
// service & substrate cache".
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"costsense/internal/graph"
)

// Spec is one experiment submission: which protocol to run, on which
// generated graph, under which delay model and fault regime, for how
// many trials. The zero-valued optional fields take the documented
// defaults at Normalize; the normalized spec is echoed back in the
// result, so callers can see exactly what ran.
type Spec struct {
	// Experiment is the protocol to run: flood, dfs, mstcentr,
	// sptcentr, conhybrid, ghs, mstfast, msthybrid.
	Experiment string `json:"experiment"`
	// Graph describes the substrate to generate (and cache).
	Graph GraphSpec `json:"graph"`
	// Delay is the delay model: max (default), unit, or uniform.
	Delay string `json:"delay,omitempty"`
	// Trials is the sweep size; trial i runs with seed Seed+i.
	Trials int `json:"trials,omitempty"`
	// Seed is the base simulation seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Root is the root/source vertex for rooted experiments.
	Root int `json:"root,omitempty"`
	// Shards must be 0 or 1, both meaning the one (serial) engine; it
	// normalizes to 0. Values above 1 once selected a sharded engine,
	// which was removed: Normalize rejects them, and journal replay
	// maps them to 0 (see applyRecord).
	Shards int `json:"shards,omitempty"`
	// EventLimit overrides the per-run event budget (default: the
	// simulator's 50M).
	EventLimit int64 `json:"event_limit,omitempty"`
	// Faults, when present, derives a reproducible fault plan for the
	// substrate and installs the reliable-delivery layer.
	Faults *FaultSpec `json:"faults,omitempty"`
	// TimeoutMS bounds the job's wall-clock run time in milliseconds;
	// 0 defers to the server's -job-timeout default (which may be
	// none). A job that exceeds it fails with reason "deadline". The
	// deadline is scheduling policy, not experiment identity: it is
	// excluded from the substrate key, and omitempty keeps timeoutless
	// specs' canonical JSON — and therefore result bytes — unchanged.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// GraphSpec names a deterministic graph generator and its parameters.
// It is the substrate cache key: two specs with equal normalized
// GraphSpecs share one cached graph.
type GraphSpec struct {
	// Family is the generator: path, ring, star, complete, grid,
	// random, hard, heavychord.
	Family string `json:"family"`
	// N is the vertex count (path, ring, star, complete, random,
	// hard, heavychord).
	N int `json:"n,omitempty"`
	// M is the edge count (random).
	M int `json:"m,omitempty"`
	// Rows, Cols size the grid family.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// X is the hard family's cable weight (default n).
	X int64 `json:"x,omitempty"`
	// Heavy is the heavychord chord weight (default n).
	Heavy int64 `json:"heavy,omitempty"`
	// Weights assigns edge weights (not used by hard/heavychord,
	// which fix their own weights).
	Weights WeightSpec `json:"weights,omitempty"`
	// Seed seeds the random generator family.
	Seed int64 `json:"seed,omitempty"`
}

// WeightSpec names a deterministic edge-weight function.
type WeightSpec struct {
	// Kind: unit (default), const, uniform, pow2.
	Kind string `json:"kind,omitempty"`
	// W is the const weight.
	W int64 `json:"w,omitempty"`
	// Max is the uniform maximum weight.
	Max int64 `json:"max,omitempty"`
	// Exp is the pow2 maximum exponent.
	Exp int `json:"exp,omitempty"`
	// Seed seeds the random weight functions.
	Seed int64 `json:"seed,omitempty"`
}

// FaultSpec derives a reproducible fault plan for the substrate, with
// the same knobs as the chaos harness's -faults flag. The reliable
// delivery layer is installed on every faulty run, so protocols keep
// their exactly-once semantics under loss.
type FaultSpec struct {
	Drop float64 `json:"drop,omitempty"` // P(message lost at send), in [0, 1)
	Dup  float64 `json:"dup,omitempty"`  // P(message duplicated), in [0, 1)
	// Crashes is the number of fail-stop nodes (never the root).
	Crashes int `json:"crashes,omitempty"`
	// Downs is the number of transient link-outage windows.
	Downs int `json:"downs,omitempty"`
	// Horizon bounds crash times and window starts (default 64).
	Horizon int64 `json:"horizon,omitempty"`
	// Seed seeds the plan derivation (default 7), independent of the
	// run seed: the same plan applies to every trial of the sweep.
	Seed int64 `json:"seed,omitempty"`
}

// Limits guarding the service against abusive specs. They bound work
// per job, not correctness: a sweep larger than MaxTrials is split by
// the caller into several jobs.
const (
	MaxTrials   = 100_000
	maxVertices = 2_000_000
	maxEdges    = 20_000_000
)

// experimentKinds names the runnable protocols.
var experimentKinds = map[string]bool{
	"flood": true, "dfs": true, "mstcentr": true, "sptcentr": true,
	"conhybrid": true, "ghs": true, "mstfast": true, "msthybrid": true,
}

// Normalize applies defaults and validates the spec in place. After a
// nil return the spec is canonical: equal sweeps have equal
// marshalled forms, which is what the substrate key and the
// byte-identical-results contract rest on.
func (s *Spec) Normalize() error {
	if !experimentKinds[s.Experiment] {
		return fmt.Errorf("unknown experiment %q (have flood, dfs, mstcentr, sptcentr, conhybrid, ghs, mstfast, msthybrid)", s.Experiment)
	}
	if err := s.Graph.normalize(); err != nil {
		return err
	}
	switch s.Delay {
	case "":
		s.Delay = "max"
	case "max", "unit", "uniform":
	default:
		return fmt.Errorf("unknown delay model %q (have max, unit, uniform)", s.Delay)
	}
	if s.Trials == 0 {
		s.Trials = 1
	}
	if s.Trials < 1 || s.Trials > MaxTrials {
		return fmt.Errorf("trials %d out of range [1, %d]", s.Trials, MaxTrials)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	n := s.Graph.vertexCount()
	if s.Root < 0 || s.Root >= n {
		return fmt.Errorf("root %d out of range [0, %d)", s.Root, n)
	}
	if s.Shards < 0 || s.Shards > 1 {
		return fmt.Errorf("shards %d: the sharded engine was removed; shards must be 0 or 1 (serial)", s.Shards)
	}
	s.Shards = 0 // 0 and 1 both name the serial engine; canonicalize
	if s.EventLimit < 0 {
		return fmt.Errorf("event_limit must be >= 0")
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0")
	}
	if s.Faults != nil {
		if err := s.Faults.normalize(); err != nil {
			return err
		}
	}
	return nil
}

func (f *FaultSpec) normalize() error {
	if f.Drop < 0 || f.Drop >= 1 || f.Dup < 0 || f.Dup >= 1 {
		return fmt.Errorf("fault probabilities must be in [0, 1): drop=%v dup=%v", f.Drop, f.Dup)
	}
	if f.Crashes < 0 || f.Downs < 0 {
		return fmt.Errorf("fault counts must be >= 0")
	}
	if f.Horizon == 0 {
		f.Horizon = 64
	}
	if f.Horizon < 2 {
		return fmt.Errorf("fault horizon must be >= 2")
	}
	if f.Seed == 0 {
		f.Seed = 7
	}
	return nil
}

func (g *GraphSpec) normalize() error {
	switch g.Family {
	case "path", "ring", "star", "complete", "random", "hard", "heavychord":
		if g.N < 2 {
			return fmt.Errorf("graph family %q needs n >= 2 (got %d)", g.Family, g.N)
		}
	case "grid":
		if g.Rows < 1 || g.Cols < 1 || g.Rows*g.Cols < 2 {
			return fmt.Errorf("grid needs rows >= 1 and cols >= 1 with rows*cols >= 2")
		}
		g.N = 0 // rows/cols are the grid's size parameters
	case "":
		return fmt.Errorf("graph family missing")
	default:
		return fmt.Errorf("unknown graph family %q (have path, ring, star, complete, grid, random, hard, heavychord)", g.Family)
	}
	if g.vertexCount() > maxVertices {
		return fmt.Errorf("graph too large: %d vertices (max %d)", g.vertexCount(), maxVertices)
	}
	switch g.Family {
	case "random":
		if g.M < g.N-1 {
			return fmt.Errorf("random family needs m >= n-1 (got n=%d m=%d)", g.N, g.M)
		}
		if g.M > maxEdges {
			return fmt.Errorf("graph too large: %d edges (max %d)", g.M, maxEdges)
		}
	case "complete":
		if g.N*(g.N-1)/2 > maxEdges {
			return fmt.Errorf("complete graph on %d vertices exceeds the %d-edge limit", g.N, maxEdges)
		}
		g.M = 0
	default:
		g.M = 0
	}
	switch g.Family {
	case "hard":
		if g.X == 0 {
			g.X = int64(g.N)
		}
		if g.X < 1 {
			return fmt.Errorf("hard family cable weight x must be >= 1")
		}
		g.Heavy, g.Weights, g.Seed = 0, WeightSpec{}, 0
		return nil
	case "heavychord":
		if g.Heavy == 0 {
			g.Heavy = int64(g.N)
		}
		if g.Heavy < 1 {
			return fmt.Errorf("heavychord chord weight must be >= 1")
		}
		g.X, g.Weights, g.Seed = 0, WeightSpec{}, 0
		return nil
	}
	g.X, g.Heavy = 0, 0
	if g.Family != "random" {
		g.Seed = 0
	}
	return g.Weights.normalize()
}

func (w *WeightSpec) normalize() error {
	switch w.Kind {
	case "":
		w.Kind = "unit"
	case "unit", "const", "uniform", "pow2":
	default:
		return fmt.Errorf("unknown weight kind %q (have unit, const, uniform, pow2)", w.Kind)
	}
	switch w.Kind {
	case "unit":
		w.W, w.Max, w.Exp, w.Seed = 0, 0, 0, 0
	case "const":
		if w.W < 1 {
			return fmt.Errorf("const weights need w >= 1")
		}
		w.Max, w.Exp, w.Seed = 0, 0, 0
	case "uniform":
		if w.Max < 1 {
			return fmt.Errorf("uniform weights need max >= 1")
		}
		w.W, w.Exp = 0, 0
	case "pow2":
		if w.Exp < 0 {
			return fmt.Errorf("pow2 weights need exp >= 0")
		}
		w.W, w.Max = 0, 0
	}
	return nil
}

// vertexCount is the vertex count the normalized spec will generate.
func (g *GraphSpec) vertexCount() int {
	if g.Family == "grid" {
		return g.Rows * g.Cols
	}
	return g.N
}

// weightFn resolves the normalized WeightSpec.
func (w WeightSpec) weightFn() graph.WeightFn {
	switch w.Kind {
	case "const":
		return graph.ConstWeights(w.W)
	case "uniform":
		return graph.UniformWeights(w.Max, w.Seed)
	case "pow2":
		return graph.PowerOfTwoWeights(w.Exp, w.Seed)
	}
	return graph.UnitWeights()
}

// Build generates the graph a normalized GraphSpec describes. Every
// family is a deterministic function of the spec, so two Builds of
// equal specs produce content-identical graphs.
func (g GraphSpec) Build() *graph.Graph {
	w := g.Weights.weightFn()
	switch g.Family {
	case "path":
		return graph.Path(g.N, w)
	case "ring":
		return graph.Ring(g.N, w)
	case "star":
		return graph.Star(g.N, w)
	case "complete":
		return graph.Complete(g.N, w)
	case "grid":
		return graph.Grid(g.Rows, g.Cols, w)
	case "random":
		return graph.RandomConnected(g.N, g.M, w, g.Seed)
	case "hard":
		return graph.HardConnectivity(g.N, g.X)
	case "heavychord":
		return graph.HeavyChordRing(g.N, g.Heavy)
	}
	panic(fmt.Sprintf("serve: Build on unnormalized GraphSpec with family %q", g.Family))
}

// SubstrateKey derives the content address of the substrate this spec
// runs on: SHA-256 over the canonical JSON of the normalized graph
// spec plus a "shards" member that is always 0, kept so that keys
// match the ones journals and caches recorded while a sharded engine
// existed. Equal sweeps — whatever their trial counts, seeds, delay
// models or fault plans — share one substrate.
func (s *Spec) SubstrateKey() string {
	material, err := json.Marshal(struct {
		Graph  GraphSpec `json:"graph"`
		Shards int       `json:"shards"`
	}{Graph: s.Graph})
	if err != nil {
		panic(fmt.Sprintf("serve: marshalling substrate key material: %v", err))
	}
	sum := sha256.Sum256(material)
	return hex.EncodeToString(sum[:])
}
