package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"costsense/internal/graph"
	"costsense/internal/jsonw"
	"costsense/internal/reliable"
	"costsense/internal/sim"
)

// checkAgainstOracle holds AppendJSON to encoding/json on the same
// counters: the Snapshot schema through MarshalIndent at depth 0 and 1,
// and the newline-terminated document WriteJSON has always produced.
func checkAgainstOracle(t *testing.T, m *Metrics) {
	t.Helper()
	for depth := 0; depth <= 1; depth++ {
		want, err := json.MarshalIndent(m.Snapshot(), jsonw.Prefix(depth), "  ")
		if err != nil {
			t.Fatal(err)
		}
		// A non-empty dst must be appended to, not overwritten.
		got := m.AppendJSON([]byte("head"), depth)
		if !bytes.Equal(got, append([]byte("head"), want...)) {
			t.Fatalf("depth %d: direct encoding differs from encoding/json at byte %d\n got  %q\n want %q",
				depth, firstDiff(got[4:], want), excerpt(got[4:], want), excerpt(want, got[4:]))
		}
	}
	var want, got bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteJSON differs from the json.Encoder document at byte %d", firstDiff(got.Bytes(), want.Bytes()))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// excerpt returns a's bytes around its first difference from b.
func excerpt(a, b []byte) []byte {
	at := firstDiff(a, b)
	return a[max(0, at-40):min(len(a), at+40)]
}

// TestAppendJSONMatchesEncodingJSON: over every delay model, plain and
// congested, fault-free and under the chaos plan, the direct encoder's
// bytes are encoding/json's.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, c := range obsCases() {
		for _, faulty := range []bool{false, true} {
			c, faulty := c, faulty
			name := c.name
			if faulty {
				name += "/faulty"
			}
			t.Run(name, func(t *testing.T) {
				g := graph.RandomConnected(40, 120, graph.UniformWeights(32, 7), 7)
				m := NewMetrics(g)
				opts := []sim.Option{sim.WithObserver(m)}
				if faulty {
					rel, _ := reliable.Install(reliable.Config{})
					opts = append(opts, rel, sim.WithFaults(faultyPlan(g)), sim.WithEventLimit(5_000_000))
				}
				runCase(t, c, opts...)
				if faulty && m.Snapshot().Faults == nil {
					t.Fatal("faulty run exported no fault section")
				}
				checkAgainstOracle(t, m)
			})
		}
	}
}

// TestAppendJSONSyntheticShapes covers what no run produces: an
// unobserved graph, an edgeless one, nil against empty series, values
// below zero, and class names encoding/json has to escape.
func TestAppendJSONSyntheticShapes(t *testing.T) {
	t.Run("untouched", func(t *testing.T) {
		checkAgainstOracle(t, NewMetrics(graph.Ring(5, graph.UnitWeights())))
	})
	t.Run("edgeless", func(t *testing.T) {
		checkAgainstOracle(t, NewMetrics(graph.NewBuilder(1).MustBuild()))
	})
	t.Run("series and names", func(t *testing.T) {
		m := NewMetrics(graph.Ring(4, graph.UnitWeights()))
		m.edges[1] = EdgeCounters{Messages: -1, Comm: -1 << 62, Busy: 0, Wait: -7, MaxInFlight: -3, Drops: 1, Retx: 2, Dups: 3}
		m.finish, m.quiesced = -9, true
		m.crashes = []CrashMark{{Node: 2, At: 4}}
		for _, cs := range []classSeries{
			{class: "nil-both"},
			{class: "empty-both", commPts: []Point{}, delivPts: []Point{}},
			{class: "nil-comm", delivPts: []Point{{T: 0, V: 0}, {T: -5, V: 1 << 62}}},
			{class: "quote\"back\\slash", commPts: []Point{{T: 1, V: 2}}},
			{class: "<html>&amp;", commPts: []Point{{T: 1, V: 2}}, delivPts: []Point{}},
			{class: "line\u2028sep\u2029", messages: -4, comm: -5, delivered: -6},
			{class: "bad\xffutf8\xc0", commPts: []Point{}},
			{class: "ctl\x00\x1f\t\n\x7f"},
			{class: "ünïcödé"},
			{class: ""},
		} {
			m.classes = append(m.classes, cs)
		}
		checkAgainstOracle(t, m)
	})
}

// TestAppendJSONAllocsIndependentOfSize: encoding into a warmed buffer
// allocates the same small number of objects whatever the edge and
// point counts — the class ordering and nothing per row.
func TestAppendJSONAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		g := graph.RandomConnected(n, 4*n, graph.UniformWeights(32, 7), 7)
		m := NewMetrics(g)
		procs := make([]sim.Process, g.N())
		for v := range procs {
			procs[v] = &ackFlooder{}
		}
		if _, err := sim.Run(g, procs, sim.WithDelay(sim.DelayUniform{}), sim.WithSeed(3), sim.WithObserver(m)); err != nil {
			t.Fatal(err)
		}
		buf := m.AppendJSON(nil, 1)
		return testing.AllocsPerRun(10, func() { buf = m.AppendJSON(buf[:0], 1) })
	}
	small, large := allocs(20), allocs(2000)
	if small != large {
		t.Fatalf("allocations grow with the export: %v for 80 edges, %v for 8000", small, large)
	}
	if large > 8 {
		t.Fatalf("%v allocations per export into a warmed buffer; the class ordering should be all there is", large)
	}
}
