// Package obs is the simulator's optional observability layer: bundled
// sim.Observer implementations that turn a run's internal dynamics —
// per-edge load, per-class cost growth, message lifetimes — into
// deterministic, exportable artifacts, plus the experiment-harness
// progress telemetry.
//
// The paper's whole subject is *measuring* protocols: weighted
// communication c_π, completion time t_π, and the congestion factors
// hiding inside the time bounds (the extra log n in γ*'s pulse delay
// comes from edges shared by O(log n) cover trees). End-of-run totals
// cannot show any of that; these observers can, without perturbing the
// run (probes are branch-only on the unobserved path, and observed
// runs replay the identical event sequence).
//
// Determinism contract: every export (JSON, CSV, Chrome trace) is
// byte-identical across runs of the same seed — all collections are
// dense slices in event or edge-ID order, never map iterations.
package obs

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"costsense/internal/graph"
	"costsense/internal/jsonw"
	"costsense/internal/sim"
)

// Point is one sample of a cumulative per-class time series.
type Point struct {
	T int64 `json:"t"` // simulated time
	V int64 `json:"v"` // cumulative value at T
}

// EdgeCounters aggregates one edge's traffic over a run.
type EdgeCounters struct {
	Messages    int64 // transmissions over the edge (both directions)
	Comm        int64 // weighted communication: Messages x w(e)
	Busy        int64 // Σ transit delay: time spent carrying messages
	Wait        int64 // Σ FIFO/congestion queueing before transit began
	MaxInFlight int32 // peak simultaneous in-flight messages
	Drops       int64 // messages the fault adversary destroyed on this edge
	Retx        int64 // reliable-layer retransmissions (class "retx")
	Dups        int64 // fault-injected duplicate copies (not in Messages/Comm)
}

// classSeries is the dense per-class accumulator.
type classSeries struct {
	class     sim.Class
	messages  int64
	comm      int64
	delivered int64
	commPts   []Point // cumulative c_π(t), one point per distinct send time
	delivPts  []Point // cumulative deliveries, one point per distinct delivery time
}

// Metrics is a sim.Observer recording per-edge counters and per-class
// cumulative time series into dense, preallocated buffers. One Metrics
// instruments one run; build a fresh one per Network.
type Metrics struct {
	g             *graph.Graph
	edges         []EdgeCounters // indexed by EdgeID
	inflight      []int32        // current in-flight per edge
	classes       []classSeries
	classIdx      map[sim.Class]int
	classOf       []uint16 // seq-1 -> class index; sends are dense, so this is too
	dropsByReason [3]int64 // indexed by sim.DropReason - 1
	crashes       []CrashMark
	linkDowns     []LinkDownMark
	finish        int64
	quiesced      bool
}

// CrashMark is one observed fail-stop, for the exported fault timeline.
type CrashMark struct {
	Node int   `json:"node"`
	At   int64 `json:"at"`
}

// LinkDownMark is one observed link outage window.
type LinkDownMark struct {
	Edge  int   `json:"edge"`
	From  int64 `json:"from"`
	Until int64 `json:"until"`
}

var _ sim.Observer = (*Metrics)(nil)

// NewMetrics builds a metrics observer for one run over g.
func NewMetrics(g *graph.Graph) *Metrics {
	return &Metrics{
		g:        g,
		edges:    make([]EdgeCounters, g.M()),
		inflight: make([]int32, g.M()),
		classes:  make([]classSeries, 0, 8),
		classIdx: make(map[sim.Class]int, 8),
		classOf:  make([]uint16, 0, 2*g.M()),
	}
}

// classID interns a class; the map read is allocation-free, the
// first-sight insert is once per class.
//
//costsense:hotpath
func (m *Metrics) classID(c sim.Class) int {
	if id, ok := m.classIdx[c]; ok {
		return id
	}
	//costsense:alloc-ok interning cold path: runs once per class over a whole run, not per event
	return m.addClass(c)
}

// addClass is the once-per-class cold path of classID.
func (m *Metrics) addClass(c sim.Class) int {
	id := len(m.classes)
	if id > 0xFFFF {
		panic("obs: more than 65536 message classes")
	}
	m.classes = append(m.classes, classSeries{class: c})
	m.classIdx[c] = id
	return id
}

// OnSend accounts the transmission on its edge and class. Amortized
// slice growth only; no per-event allocation. Duplicate copies count
// in Dups only, mirroring the engine's Stats (the protocol didn't pay
// for them); retransmissions are real paid sends and additionally
// bump Retx.
//
//costsense:hotpath
func (m *Metrics) OnSend(e sim.SendEvent, _ sim.Message) {
	ec := &m.edges[e.Edge]
	if e.Dup {
		ec.Dups++
	} else {
		ec.Messages++
		ec.Comm += e.W
		if e.Class == sim.ClassRetx {
			ec.Retx++
		}
	}
	ec.Busy += e.Delay
	ec.Wait += e.Wait()
	m.inflight[e.Edge]++
	if m.inflight[e.Edge] > ec.MaxInFlight {
		ec.MaxInFlight = m.inflight[e.Edge]
	}
	ci := m.classID(e.Class)
	cs := &m.classes[ci]
	if !e.Dup {
		cs.messages++
		cs.comm += e.W
		if k := len(cs.commPts); k > 0 && cs.commPts[k-1].T == e.Time {
			cs.commPts[k-1].V = cs.comm // coalesce same-time samples
		} else {
			cs.commPts = append(cs.commPts, Point{T: e.Time, V: cs.comm})
		}
	}
	// Every OnSend — including duplicates and messages later dropped —
	// appends here: probe sequences are dense over all transmissions.
	m.classOf = append(m.classOf, uint16(ci))
}

// OnDeliver retires the message from its edge and samples the class's
// delivery series.
//
//costsense:hotpath
func (m *Metrics) OnDeliver(e sim.DeliverEvent, _ sim.Message) {
	m.inflight[e.Edge]--
	cs := &m.classes[m.classOf[e.Seq-1]]
	cs.delivered++
	if k := len(cs.delivPts); k > 0 && cs.delivPts[k-1].T == e.Time {
		cs.delivPts[k-1].V = cs.delivered
	} else {
		cs.delivPts = append(cs.delivPts, Point{T: e.Time, V: cs.delivered})
	}
}

// OnDrop retires a destroyed message from its edge and tallies the
// loss per edge and per reason.
//
//costsense:hotpath
func (m *Metrics) OnDrop(e sim.DropEvent, _ sim.Message) {
	m.inflight[e.Edge]--
	m.edges[e.Edge].Drops++
	m.dropsByReason[e.Reason-1]++
}

// OnCrash records the fail-stop on the run's fault timeline.
func (m *Metrics) OnCrash(node graph.NodeID, at int64) {
	m.crashes = append(m.crashes, CrashMark{Node: int(node), At: at})
}

// OnLinkDown records the outage window on the run's fault timeline.
func (m *Metrics) OnLinkDown(e graph.EdgeID, from, until int64) {
	m.linkDowns = append(m.linkDowns, LinkDownMark{Edge: int(e), From: from, Until: until})
}

// OnRecord is ignored; Record traces stay on the Network.
func (m *Metrics) OnRecord(graph.NodeID, int64, string, int64) {}

// OnQuiesce captures the completion time.
func (m *Metrics) OnQuiesce(s *sim.Stats) {
	m.finish = s.FinishTime
	m.quiesced = true
}

// EdgeMetric is the exportable per-edge row.
type EdgeMetric struct {
	Edge        int   `json:"edge"`
	U           int   `json:"u"`
	V           int   `json:"v"`
	W           int64 `json:"w"`
	Messages    int64 `json:"messages"`
	Comm        int64 `json:"comm"`
	Busy        int64 `json:"busy"`
	Wait        int64 `json:"wait"`
	MaxInFlight int32 `json:"max_in_flight"`
	Drops       int64 `json:"drops"`
	Retx        int64 `json:"retx"`
	Dups        int64 `json:"dups"`
}

// FaultMetrics summarizes an observed run's injected faults; all-zero
// (and omitted from JSON) on fault-free runs.
type FaultMetrics struct {
	Dropped     int64          `json:"dropped"`      // send-time losses (loss + linkdown)
	DeadLetters int64          `json:"dead_letters"` // arrivals at crashed nodes
	Retx        int64          `json:"retx"`
	Dups        int64          `json:"dups"`
	Crashes     []CrashMark    `json:"crashes,omitempty"`
	LinkDowns   []LinkDownMark `json:"link_downs,omitempty"`
}

func (f FaultMetrics) zero() bool {
	return f.Dropped == 0 && f.DeadLetters == 0 && f.Retx == 0 && f.Dups == 0 &&
		len(f.Crashes) == 0 && len(f.LinkDowns) == 0
}

// ClassMetric is the exportable per-class aggregate plus its series.
type ClassMetric struct {
	Class       string  `json:"class"`
	Messages    int64   `json:"messages"`
	Comm        int64   `json:"comm"`
	Delivered   int64   `json:"delivered"`
	CommSeries  []Point `json:"comm_series"`
	DelivSeries []Point `json:"deliveries_series"`
}

// Snapshot is the full exportable view of one observed run. All slices
// are sorted (edges by ID, classes by name), so encoding/json output
// is byte-deterministic.
type Snapshot struct {
	Nodes      int           `json:"nodes"`
	EdgesTotal int           `json:"edges_total"`
	FinishTime int64         `json:"finish_time"`
	Quiesced   bool          `json:"quiesced"`
	Faults     *FaultMetrics `json:"faults,omitempty"` // nil on fault-free runs
	Edges      []EdgeMetric  `json:"edges"`
	Classes    []ClassMetric `json:"classes"`
}

// faultMetrics summarizes the injected faults seen so far, or nil on a
// fault-free run (the export omits the section).
func (m *Metrics) faultMetrics() *FaultMetrics {
	fm := &FaultMetrics{
		Dropped:     m.dropsByReason[sim.DropLoss-1] + m.dropsByReason[sim.DropLinkDown-1],
		DeadLetters: m.dropsByReason[sim.DropCrash-1],
		Crashes:     m.crashes,
		LinkDowns:   m.linkDowns,
	}
	for i := range m.edges {
		fm.Retx += m.edges[i].Retx
		fm.Dups += m.edges[i].Dups
	}
	if fm.zero() {
		return nil
	}
	return fm
}

// classOrder lists the class indices in class-name order, the order
// every export uses.
func (m *Metrics) classOrder() []int {
	order := make([]int, len(m.classes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return m.classes[order[i]].class < m.classes[order[j]].class })
	return order
}

// Snapshot materializes the current counters. Edges that carried no
// traffic are included (zero rows), so row i is always edge i.
func (m *Metrics) Snapshot() *Snapshot {
	s := &Snapshot{
		Nodes:      m.g.N(),
		EdgesTotal: m.g.M(),
		FinishTime: m.finish,
		Quiesced:   m.quiesced,
		Faults:     m.faultMetrics(),
		Edges:      make([]EdgeMetric, m.g.M()),
		Classes:    make([]ClassMetric, 0, len(m.classes)),
	}
	for i, ec := range m.edges {
		e := m.g.Edge(graph.EdgeID(i))
		s.Edges[i] = EdgeMetric{
			Edge: i, U: int(e.U), V: int(e.V), W: e.W,
			Messages: ec.Messages, Comm: ec.Comm, Busy: ec.Busy,
			Wait: ec.Wait, MaxInFlight: ec.MaxInFlight,
			Drops: ec.Drops, Retx: ec.Retx, Dups: ec.Dups,
		}
	}
	for _, ci := range m.classOrder() {
		cs := &m.classes[ci]
		s.Classes = append(s.Classes, ClassMetric{
			Class: string(cs.class), Messages: cs.messages, Comm: cs.comm,
			Delivered: cs.delivered, CommSeries: cs.commPts, DelivSeries: cs.delivPts,
		})
	}
	return s
}

// AppendJSON appends the run's export — the Snapshot schema, indented
// as json.MarshalIndent(m.Snapshot(), jsonw.Prefix(depth), "  ") writes
// it, byte for byte — straight from the live counters: no Snapshot is
// built and nothing is reflected over, so the cost is one pass over
// the edges and series points. depth is how deep the object sits in an
// enclosing document (0 for a document of its own). Snapshot with its
// tags stays the schema; the obs tests hold the two to each other.
func (m *Metrics) AppendJSON(dst []byte, depth int) []byte {
	f := depth + 1
	dst = append(dst, '{')
	dst = jsonw.Int(dst, f, "nodes", int64(m.g.N()))
	dst = jsonw.Int(dst, f, "edges_total", int64(m.g.M()))
	dst = jsonw.Int(dst, f, "finish_time", m.finish)
	dst = jsonw.Bool(dst, f, "quiesced", m.quiesced)
	if fm := m.faultMetrics(); fm != nil {
		b, err := json.MarshalIndent(fm, jsonw.Prefix(f), "  ")
		if err != nil {
			panic("obs: encoding fault metrics: " + err.Error()) // integers and slices of integers: cannot fail
		}
		dst = jsonw.Raw(dst, f, "faults", b)
	}
	dst = jsonw.Open(dst, f, "edges", '[')
	for i := range m.edges {
		dst = appendEdge(dst, f+1, i, m.g.Edge(graph.EdgeID(i)), &m.edges[i])
	}
	dst = jsonw.Close(dst, f, ']')
	dst = jsonw.Open(dst, f, "classes", '[')
	for _, ci := range m.classOrder() {
		dst = appendClass(dst, f+1, &m.classes[ci])
	}
	dst = jsonw.Close(dst, f, ']')
	dst = jsonw.Close(dst, depth, '}')
	return dst[:len(dst)-1] // a value, not a member: no trailing comma
}

// appendEdge appends one EdgeMetric row as an array element at depth.
//
//costsense:hotpath
func appendEdge(dst []byte, depth, id int, e graph.Edge, ec *EdgeCounters) []byte {
	f := depth + 1
	dst = jsonw.Elem(dst, depth)
	dst = jsonw.Int(dst, f, "edge", int64(id))
	dst = jsonw.Int(dst, f, "u", int64(e.U))
	dst = jsonw.Int(dst, f, "v", int64(e.V))
	dst = jsonw.Int(dst, f, "w", e.W)
	dst = jsonw.Int(dst, f, "messages", ec.Messages)
	dst = jsonw.Int(dst, f, "comm", ec.Comm)
	dst = jsonw.Int(dst, f, "busy", ec.Busy)
	dst = jsonw.Int(dst, f, "wait", ec.Wait)
	dst = jsonw.Int(dst, f, "max_in_flight", int64(ec.MaxInFlight))
	dst = jsonw.Int(dst, f, "drops", ec.Drops)
	dst = jsonw.Int(dst, f, "retx", ec.Retx)
	dst = jsonw.Int(dst, f, "dups", ec.Dups)
	dst = jsonw.Close(dst, depth, '}')
	return dst
}

// appendClass appends one ClassMetric row — header and both series —
// as an array element at depth.
//
//costsense:hotpath
func appendClass(dst []byte, depth int, cs *classSeries) []byte {
	f := depth + 1
	dst = jsonw.Elem(dst, depth)
	dst = jsonw.String(dst, f, "class", string(cs.class))
	dst = jsonw.Int(dst, f, "messages", cs.messages)
	dst = jsonw.Int(dst, f, "comm", cs.comm)
	dst = jsonw.Int(dst, f, "delivered", cs.delivered)
	dst = appendSeries(dst, f, "comm_series", cs.commPts)
	dst = appendSeries(dst, f, "deliveries_series", cs.delivPts)
	dst = jsonw.Close(dst, depth, '}')
	return dst
}

// appendSeries appends a []Point member at depth: null for a nil
// series, as encoding/json writes a nil slice.
//
//costsense:hotpath
func appendSeries(dst []byte, depth int, name string, pts []Point) []byte {
	if pts == nil {
		dst = jsonw.Null(dst, depth, name)
		return dst
	}
	dst = jsonw.Open(dst, depth, name, '[')
	for _, p := range pts {
		dst = jsonw.Elem(dst, depth+1)
		dst = jsonw.Int(dst, depth+2, "t", p.T)
		dst = jsonw.Int(dst, depth+2, "v", p.V)
		dst = jsonw.Close(dst, depth+1, '}')
	}
	dst = jsonw.Close(dst, depth, ']')
	return dst
}

// WriteJSON writes the export as an indented JSON document of its own
// (AppendJSON at depth 0, newline-terminated). Byte-deterministic for a
// fixed seed.
func (m *Metrics) WriteJSON(w io.Writer) error {
	// Sized up front — a few hundred bytes an edge row, a few dozen a
	// point — because growing a multi-MB slice by appending copies it a
	// dozen times over.
	points := 0
	for i := range m.classes {
		points += len(m.classes[i].commPts) + len(m.classes[i].delivPts)
	}
	buf := make([]byte, 0, 256*len(m.edges)+64*points+1024)
	_, err := w.Write(append(m.AppendJSON(buf, 0), '\n'))
	return err
}

// WriteEdgeCSV writes one CSV row per edge, in edge-ID order.
func (m *Metrics) WriteEdgeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"edge", "u", "v", "w", "messages", "comm", "busy", "wait", "max_in_flight", "drops", "retx", "dups"}); err != nil {
		return err
	}
	for _, e := range m.Snapshot().Edges {
		row := []string{
			strconv.Itoa(e.Edge), strconv.Itoa(e.U), strconv.Itoa(e.V),
			strconv.FormatInt(e.W, 10), strconv.FormatInt(e.Messages, 10),
			strconv.FormatInt(e.Comm, 10), strconv.FormatInt(e.Busy, 10),
			strconv.FormatInt(e.Wait, 10), strconv.Itoa(int(e.MaxInFlight)),
			strconv.FormatInt(e.Drops, 10), strconv.FormatInt(e.Retx, 10),
			strconv.FormatInt(e.Dups, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// MaxEdgeLoad returns the largest message count on any single edge —
// the congestion quantity the γ* analysis bounds by the cover's edge
// load — and one edge attaining it (lowest ID on ties).
func (m *Metrics) MaxEdgeLoad() (graph.EdgeID, int64) {
	var best graph.EdgeID
	var n int64
	for i, ec := range m.edges {
		if ec.Messages > n {
			best, n = graph.EdgeID(i), ec.Messages
		}
	}
	return best, n
}

// Tee fans callbacks out to several observers in order; use it to run
// the metrics and trace observers on the same network.
type Tee struct{ obs []sim.Observer }

var _ sim.Observer = (*Tee)(nil)

// NewTee composes observers; nil entries are dropped.
func NewTee(obs ...sim.Observer) *Tee {
	t := &Tee{}
	for _, o := range obs {
		if o != nil {
			t.obs = append(t.obs, o)
		}
	}
	return t
}

//costsense:hotpath
func (t *Tee) OnSend(e sim.SendEvent, m sim.Message) {
	for _, o := range t.obs {
		o.OnSend(e, m)
	}
}

//costsense:hotpath
func (t *Tee) OnDeliver(e sim.DeliverEvent, m sim.Message) {
	for _, o := range t.obs {
		o.OnDeliver(e, m)
	}
}

//costsense:hotpath
func (t *Tee) OnDrop(e sim.DropEvent, m sim.Message) {
	for _, o := range t.obs {
		o.OnDrop(e, m)
	}
}

func (t *Tee) OnCrash(n graph.NodeID, at int64) {
	for _, o := range t.obs {
		o.OnCrash(n, at)
	}
}

func (t *Tee) OnLinkDown(e graph.EdgeID, from, until int64) {
	for _, o := range t.obs {
		o.OnLinkDown(e, from, until)
	}
}

func (t *Tee) OnRecord(n graph.NodeID, at int64, key string, v int64) {
	for _, o := range t.obs {
		o.OnRecord(n, at, key, v)
	}
}

func (t *Tee) OnQuiesce(s *sim.Stats) {
	for _, o := range t.obs {
		o.OnQuiesce(s)
	}
}
