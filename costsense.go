// Package costsense is a library for cost-sensitive analysis of
// communication protocols, reproducing Awerbuch, Baratz and Peleg,
// "Cost-Sensitive Analysis of Communication Protocols" (PODC 1990;
// MIT/LCS/TM-453).
//
// The model is a static asynchronous network over a weighted graph
// G = (V, E, w): transmitting a message over edge e costs w(e) and
// takes up to w(e) time. Protocols are measured by their weighted
// communication c_π and time t_π, expressed in the weighted analogs of
// the classical parameters:
//
//	𝓔 = w(G)         — cost of one message on every edge   (TotalWeight)
//	𝓥 = w(MST(G))    — minimum cost of reaching all nodes  (MSTWeight)
//	𝓓 = Diam(G)      — maximum point-to-point cost         (Diameter)
//
// The library provides:
//
//   - a deterministic discrete-event simulator of the model (Run,
//     NewNetwork) plus the weighted synchronous reference executor;
//   - shallow-light trees (BuildSLT) and optimal global function
//     computation (Compute, ComputeViaSLT) — §2;
//   - clock synchronizers α*, β*, γ* with pulse-delay measurement — §3;
//   - network synchronizers α, β and the weighted γ_w, with the
//     normalization / in-synch protocol transformation — §4;
//   - the controller protocol transformer — §5;
//   - the basic toolbox (flooding, DFS, MSTcentr, SPTcentr) — §6;
//   - connectivity with matching bounds (CONhybrid, the G_n lower
//     bound family) — §7;
//   - MST algorithms (GHS, MSTfast, MSThybrid) — §8;
//   - SPT algorithms (SPTsynch, SPTrecur, SPThybrid) — §9.
//
// Quick start:
//
//	g := costsense.RandomConnected(100, 300, costsense.UniformWeights(64, 1), 1)
//	tree, _, _ := costsense.BuildSLT(g, 0, 2)
//	res, _ := costsense.Compute(g, tree, inputs, costsense.Sum)
//	fmt.Println(res.Value, res.Stats.Comm, res.Stats.FinishTime)
package costsense

import (
	"context"

	"costsense/internal/basic"
	"costsense/internal/clocksync"
	"costsense/internal/connect"
	"costsense/internal/control"
	"costsense/internal/cover"
	"costsense/internal/gfunc"
	"costsense/internal/graph"
	"costsense/internal/harness"
	"costsense/internal/mst"
	"costsense/internal/obs"
	"costsense/internal/reliable"
	"costsense/internal/route"
	"costsense/internal/sim"
	"costsense/internal/slt"
	"costsense/internal/spt"
	"costsense/internal/synch"
	"costsense/internal/term"
)

// RunTrials evaluates trial(0..n-1) — typically one (seed, protocol,
// graph) simulation each — on a pool of min(GOMAXPROCS, n) workers and
// returns the results in index order. Results and the reported error
// (lowest failing index) are independent of scheduling, so parallel
// experiment sweeps print byte-identical tables to serial ones. trial
// must be safe for concurrent calls with distinct indices; note each
// trial must build its own Network (Run is once-per-Network).
func RunTrials[T any](n int, trial func(int) (T, error)) ([]T, error) {
	return harness.RunIndexed(n, trial)
}

// RunTrialsObserved is RunTrials with an optional progress sink (see
// TrialSink); a nil sink adds no overhead. The sink hears scheduling
// (completion order, wall time) as telemetry only — results are
// identical to RunTrials.
func RunTrialsObserved[T any](n int, trial func(int) (T, error), sink TrialSink) ([]T, error) {
	return harness.RunIndexedObserved(n, trial, sink)
}

// RunTrialsPooled is RunTrials with cancellation and per-worker
// reusable state — the sweep shape behind `costsense serve`. newState
// (when non-nil) runs once per worker; its value is owned by that
// worker for the whole sweep, so a NetworkPool threaded this way needs
// no locking: pass WithPool(state) in each trial's options and
// consecutive trials on one worker recycle a single Network
// allocation, byte-identical to fresh runs. Cancelling ctx stops the
// sweep between trials and returns ctx's error.
func RunTrialsPooled[S, T any](ctx context.Context, n int, newState func() S, trial func(context.Context, S, int) (T, error), sink TrialSink) ([]T, error) {
	return harness.RunIndexedPooled(ctx, n, newState, trial, sink)
}

// Graph model (internal/graph).
type (
	// Graph is an immutable weighted undirected communication graph.
	Graph = graph.Graph
	// Builder accumulates edges for a Graph.
	Builder = graph.Builder
	// NodeID identifies a vertex (0..n-1).
	NodeID = graph.NodeID
	// Edge is one undirected weighted edge.
	Edge = graph.Edge
	// Tree is a rooted tree over a host graph.
	Tree = graph.Tree
	// WeightFn assigns weights to generated edges.
	WeightFn = graph.WeightFn
	// ShortestPaths is a single-source shortest path result.
	ShortestPaths = graph.ShortestPaths
)

// Graph construction and generators.
var (
	NewBuilder        = graph.NewBuilder
	Path              = graph.Path
	Ring              = graph.Ring
	Star              = graph.Star
	Complete          = graph.Complete
	Grid              = graph.Grid
	Caterpillar       = graph.Caterpillar
	RandomConnected   = graph.RandomConnected
	RandomRegular     = graph.RandomRegular
	BinaryTree        = graph.BinaryTree
	HardConnectivity  = graph.HardConnectivity
	HeavyChordRing    = graph.HeavyChordRing
	ShallowLightGap   = graph.ShallowLightGap
	UnitWeights       = graph.UnitWeights
	ConstWeights      = graph.ConstWeights
	UniformWeights    = graph.UniformWeights
	PowerOfTwoWeights = graph.PowerOfTwoWeights
)

// Weighted parameters and classical graph algorithms.
var (
	// MSTWeight returns 𝓥 = w(MST(G)).
	MSTWeight = graph.MSTWeight
	// Diameter returns 𝓓 = Diam(G).
	Diameter = graph.Diameter
	// MaxNeighborDist returns d = max_(u,v)∈E dist(u,v,G) (§1.4.2).
	MaxNeighborDist = graph.MaxNeighborDist
	// Dijkstra computes single-source shortest paths.
	Dijkstra = graph.Dijkstra
	// Kruskal computes the MST edge set.
	Kruskal = graph.Kruskal
	// PrimTree computes a rooted MST.
	PrimTree = graph.PrimTree
	// Expand builds the unit-edge expansion Ĝ_b of §9.2.
	Expand = graph.Expand
	// BFS computes hop distances (= weighted distances on an expansion).
	BFS = graph.BFS
)

// Expansion is the §9.2 unit-edge expansion of a weighted graph.
type Expansion = graph.Expansion

// Simulator (internal/sim).
type (
	// Context is a process's interface to the asynchronous network.
	Context = sim.Context
	// Process is a per-node protocol automaton.
	Process = sim.Process
	// Message is an opaque payload.
	Message = sim.Message
	// Stats aggregates weighted communication and time.
	Stats = sim.Stats
	// Network is one asynchronous execution.
	Network = sim.Network
	// Option configures a Network.
	Option = sim.Option
	// SyncProcess is a protocol for the weighted synchronous network.
	SyncProcess = sim.SyncProcess
	// SyncContext is a synchronous process's network interface.
	SyncContext = sim.SyncContext
)

// Class tags a message for per-class cost accounting (Stats.CommOf).
type Class = sim.Class

// The standard message classes.
const (
	ClassProto   = sim.ClassProto
	ClassAck     = sim.ClassAck
	ClassSync    = sim.ClassSync
	ClassControl = sim.ClassControl
	ClassRetx    = sim.ClassRetx
)

// Simulator constructors and options.
var (
	NewNetwork     = sim.NewNetwork
	Run            = sim.Run
	SyncRun        = sim.SyncRun
	WithSeed       = sim.WithSeed
	WithDelay      = sim.WithDelay
	WithEventLimit = sim.WithEventLimit
	// WithCongestion serializes concurrent messages on a shared edge —
	// the link model behind the congestion factors in the paper's time
	// bounds.
	WithCongestion = sim.WithCongestion
	// NewPool builds a network pool for sweeps: WithPool(p) recycles a
	// finished Network's allocations into the next run on the same
	// graph — or, once the pool is full, on another graph — with
	// byte-identical results (the Reset golden contract). A Pool is
	// single-goroutine state — give each sweep worker its own (see
	// RunTrialsPooled).
	NewPool  = sim.NewPool
	WithPool = sim.WithPool
)

// NetworkPool recycles Network allocations across runs, on the same
// graph and, once full, across graphs.
type NetworkPool = sim.Pool

// Observability (internal/obs). Observers are optional: a Network
// without one keeps the allocation-free hot path, and an observed run
// replays the identical event sequence.
type (
	// Observer receives simulator probe callbacks (see sim.Observer
	// for the retention and reentrancy contract).
	Observer = sim.Observer
	// SendEvent describes one message entering its edge.
	SendEvent = sim.SendEvent
	// DeliverEvent describes one message leaving its edge.
	DeliverEvent = sim.DeliverEvent
	// MetricsObserver records per-edge counters and per-class
	// cumulative series with deterministic JSON/CSV export.
	MetricsObserver = obs.Metrics
	// MetricsSnapshot is the exportable view of one observed run.
	MetricsSnapshot = obs.Snapshot
	// TraceObserver records message lifetimes and exports Chrome
	// trace_event JSON (Perfetto / about:tracing) with flow events
	// linking each send to its delivery.
	TraceObserver = obs.Trace
	// CausalObserver records the happens-before DAG of a run and
	// extracts the critical path — the causal chain of messages
	// realizing the completion time — with cost attribution on vs. off
	// the path and deterministic JSON/CSV export.
	CausalObserver = obs.Causal
	// CausalReport is the exportable critical-path analysis of one run.
	CausalReport = obs.CausalReport
	// CausalSummary aggregates critical paths across a sweep's trials
	// (worst and median realized chain).
	CausalSummary = obs.CausalSummary
	// TrialSink receives per-trial telemetry from RunTrialsObserved.
	TrialSink = harness.Sink
	// ProgressMeter is the bundled TrialSink printing done/total,
	// per-trial wall time and ETA.
	ProgressMeter = obs.Progress
)

// Observability constructors.
var (
	// WithObserver attaches an Observer to a Network.
	WithObserver = sim.WithObserver
	// NewMetricsObserver builds a MetricsObserver for one run over g.
	NewMetricsObserver = obs.NewMetrics
	// NewTraceObserver builds a TraceObserver for one run over g.
	NewTraceObserver = obs.NewTrace
	// NewCausalObserver builds a CausalObserver for one run over g.
	NewCausalObserver = obs.NewCausal
	// SummarizeCausal aggregates per-trial CausalReports in index
	// order: worst/median critical path, mean on-path cost share.
	SummarizeCausal = obs.SummarizeCausal
	// NewTeeObserver composes observers; nil entries are dropped.
	NewTeeObserver = obs.NewTee
	// NewProgressMeter builds a ProgressMeter writing to w.
	NewProgressMeter = obs.NewProgress
)

// Fault injection and reliable delivery (internal/sim faults,
// internal/reliable). A FaultPlan is applied with WithFaults and drawn
// from the network's own seeded RNG, so faulty runs replay
// byte-identically; the reliable layer restores exactly-once in-order
// delivery on top of a faulty network for any unmodified Process.
type (
	// FaultPlan schedules message drops, duplication, link outages and
	// fail-stop crashes for one run.
	FaultPlan = sim.FaultPlan
	// LinkDown is one transient link outage window.
	LinkDown = sim.LinkDown
	// Crash is one scheduled fail-stop node crash.
	Crash = sim.Crash
	// DropEvent describes one lost message to an Observer.
	DropEvent = sim.DropEvent
	// DropReason says why a message was lost.
	DropReason = sim.DropReason
	// ErrEventLimit reports a run stopped at its event budget.
	ErrEventLimit = sim.ErrEventLimit
	// TimerContext is the optional Context extension for self-scheduled
	// timer events (free: no communication cost).
	TimerContext = sim.TimerContext
	// ReliableConfig tunes the reliable-delivery layer's
	// retransmission timeouts and retry budget.
	ReliableConfig = reliable.Config
	// ReliableLayer reads the per-run reliability counters
	// (retransmits, suppressed duplicates, give-ups).
	ReliableLayer = reliable.Layer
	// EdgeID identifies an edge (0..m-1).
	EdgeID = graph.EdgeID
)

// Drop reasons.
const (
	DropLoss     = sim.DropLoss
	DropLinkDown = sim.DropLinkDown
	DropCrash    = sim.DropCrash
)

// Fault-injection entry points.
var (
	// WithFaults applies a FaultPlan to a Network.
	WithFaults = sim.WithFaults
	// WithProcessWrapper interposes on the process vector (the hook
	// behind InstallReliable).
	WithProcessWrapper = sim.WithProcessWrapper
	// RandomFaultPlan draws a reproducible plan from its own seed.
	RandomFaultPlan = sim.RandomFaultPlan
	// InstallReliable returns the Option wrapping every process in the
	// reliable-delivery layer, plus the layer's counter view.
	InstallReliable = reliable.Install
	// WrapReliable wraps an explicit process vector.
	WrapReliable = reliable.Wrap
)

// Delay models.
type (
	// DelayMax is the maximal adversary (delay = w(e)); the default.
	DelayMax = sim.DelayMax
	// DelayUnit delivers in one time unit.
	DelayUnit = sim.DelayUnit
	// DelayUniform draws delays uniformly from [1, w(e)].
	DelayUniform = sim.DelayUniform
)

// Shallow-light trees (§2).
var (
	// BuildSLT constructs a shallow-light tree with trade-off q:
	// w(T) <= (1+2/q)𝓥 and depth(T) = O(q·𝓓).
	BuildSLT = slt.Build
	// BuildSLTDistributed runs the distributed construction (Thm 2.7).
	BuildSLTDistributed = slt.RunDistributed
	// IsShallowLight checks both SLT bounds.
	IsShallowLight = slt.IsShallowLight
)

// Global function computation (§1.4.1, §2).
type (
	// Function is a symmetric compact function.
	Function = gfunc.Function
	// ComputeResult is a global computation outcome.
	ComputeResult = gfunc.Result
)

// The standard symmetric compact functions.
var (
	Sum = gfunc.Sum
	Max = gfunc.Max
	Min = gfunc.Min
	Xor = gfunc.Xor
	And = gfunc.And
	Or  = gfunc.Or
)

// Global computation entry points.
var (
	// Compute evaluates f over a spanning tree: comm 2w(T), time
	// 2depth(T).
	Compute = gfunc.Compute
	// ComputeViaSLT achieves the optimal O(𝓥) comm / O(𝓓) time of
	// Corollary 2.3.
	ComputeViaSLT = gfunc.ComputeViaSLT
	// BroadcastValue disseminates a value over a tree.
	BroadcastValue = gfunc.Broadcast
)

// Clock synchronization (§3).
type ClockResult = clocksync.Result

// Clock synchronizer runners.
var (
	// RunClockAlpha is α*: pulse delay O(W).
	RunClockAlpha = clocksync.RunAlphaStar
	// RunClockBeta is β*: pulse delay O(𝓓).
	RunClockBeta = clocksync.RunBetaStar
	// RunClockBetaTree is β* over an explicit tree (ablation).
	RunClockBetaTree = clocksync.RunBetaStarTree
	// RunClockGamma is γ*: pulse delay O(d·log²n).
	RunClockGamma = clocksync.RunGammaStar
	// RunClockGammaK is γ* with an explicit cover parameter (ablation).
	RunClockGammaK = clocksync.RunGammaStarK
)

// Network synchronizers (§4).
type SynchOverhead = synch.Overhead

// Synchronizer runners and the Lemma 4.5 transformation.
var (
	// RunSynchAlpha executes a weighted synchronous protocol under
	// synchronizer α: C = O(𝓔) per pulse.
	RunSynchAlpha = synch.RunAlpha
	// RunSynchBeta executes under synchronizer β over an SLT:
	// C = O(𝓥) per pulse.
	RunSynchBeta = synch.RunBeta
	// RunSynchBetaTree is β over an explicit tree (ablation).
	RunSynchBetaTree = synch.RunBetaTree
	// RunSynchGammaW executes under the weighted synchronizer γ_w:
	// C = O(kn log W) per pulse, T = O(log_k n · log W).
	RunSynchGammaW = synch.RunGammaW
	// NormalizeGraph rounds weights up to powers of two (Def 4.3).
	NormalizeGraph = synch.NormalizeGraph
	// NewSPTSyncProcs builds the §9.1 synchronous SPT protocol, the
	// standard conformance workload for synchronizers.
	NewSPTSyncProcs = synch.NewSPTProcs
	// SPTSyncDists extracts the distances from an SPT protocol run.
	SPTSyncDists = synch.SPTDists
)

// Controller (§5).
type ControlResult = control.Result

// Controller entry points.
var (
	// RunControlled executes a diffusing computation under the §5
	// controller with the given threshold.
	RunControlled = control.Run
	// RunControlledMulti is the multiple-initiator extension of §5.
	RunControlledMulti = control.RunMulti
)

// Termination detection ([DS80], the §5 substrate).
type TermResult = term.Result

// RunWithTermination executes a diffusing computation under
// Dijkstra–Scholten termination detection: the initiator learns the
// moment the whole computation has gone quiet.
var RunWithTermination = term.Run

// Basic algorithms (§6).
var (
	// RunFlood is algorithm CONflood: O(𝓔) comm, O(𝓓) time.
	RunFlood = basic.RunFlood
	// RunDFS is the depth-first token traversal with doubling root
	// estimates: O(𝓔) comm and time.
	RunDFS = basic.RunDFS
	// RunMSTCentr is the full-information Prim algorithm: O(n𝓥) comm.
	RunMSTCentr = basic.RunMSTCentr
	// RunSPTCentr is the full-information Dijkstra: O(n²𝓥) comm.
	RunSPTCentr = basic.RunSPTCentr
)

// Connectivity (§7).
type GnReport = connect.GnReport

// Connectivity runners.
var (
	// RunCONHybrid builds a spanning tree with comm O(min{𝓔, n𝓥}).
	RunCONHybrid = connect.RunCONHybrid
	// RunGnExperiment measures the §7.1 lower-bound family.
	RunGnExperiment = connect.RunGnExperiment
)

// Minimum spanning trees (§8).
type MSTResult = mst.Result

// MST runners.
var (
	// RunGHS is algorithm MSTghs: O(𝓔 + 𝓥 log n) comm.
	RunGHS = mst.RunGHS
	// RunMSTFast is algorithm MSTfast: O(𝓔 log n log 𝓥) comm,
	// O(Diam(MST) log n log 𝓥) time.
	RunMSTFast = mst.RunMSTFast
	// RunMSTHybrid is algorithm MSThybrid:
	// O(min{𝓔 + 𝓥 log n, n𝓥}) comm.
	RunMSTHybrid = mst.RunMSTHybrid
	// RunLeaderElection elects a coordinator via MSTghs ([Awe87]).
	RunLeaderElection = mst.RunLeaderElection
)

// Shortest path trees (§9).
type SPTResult = spt.Result

// SPT runners.
var (
	// RunSPTSynch is algorithm SPTsynch (synchronous SPT under γ_w).
	RunSPTSynch = spt.RunSPTSynch
	// RunSPTRecur is algorithm SPTrecur (the strip method).
	RunSPTRecur = spt.RunSPTRecur
	// RunSPTHybrid picks the predicted-cheaper SPT algorithm.
	RunSPTHybrid = spt.RunSPTHybrid
	// DefaultStripLen picks ℓ ≈ √𝓓 for SPTrecur.
	DefaultStripLen = spt.DefaultStripLen
)

// Tree routing ([ABLP89]-style application of the tree structures).
type (
	// TreeRouter answers next-hop queries along one spanning tree.
	TreeRouter = route.TreeRouter
	// StretchStats measures route quality against shortest paths.
	StretchStats = route.StretchStats
)

// NewTreeRouter builds routing tables over a spanning tree; run it on
// a shallow-light tree for O(𝓥) table weight and O(q𝓓) root routes.
var NewTreeRouter = route.NewTreeRouter

// Covers and partitions (§1.2, [AP91]).
type (
	// Cover is a collection of clusters covering V.
	Cover = cover.Cover
	// Cluster is a connected vertex set.
	Cluster = cover.Cluster
	// TreeCover is the tree edge-cover of Def 3.1.
	TreeCover = cover.TreeCover
	// Partition is the synchronizer-γ cluster partition.
	Partition = cover.Partition
)

// Cover constructions.
var (
	// Coarsen implements Theorem 1.1 [AP91].
	Coarsen = cover.Coarsen
	// NewTreeCover implements Lemma 3.2.
	NewTreeCover = cover.NewTreeCover
	// NewPartition builds the synchronizer-γ partition (radius-bound
	// parametrization: growth exponent n^(1/k)).
	NewPartition = cover.NewPartition
	// NewPartitionGrowth builds the partition with an explicit growth
	// factor (the γ_w trade-off knob).
	NewPartitionGrowth = cover.NewPartitionGrowth
	// NewTreeCoverK is NewTreeCover with an explicit coarsening k.
	NewTreeCoverK = cover.NewTreeCoverK
	// BallCover builds the cover of all balls of a given radius.
	BallCover = cover.BallCover
)
