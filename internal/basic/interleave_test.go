package basic

import (
	"testing"

	"costsense/internal/graph"
	"costsense/internal/sim"
)

// fakePort stands in for the root's sim.Context of one delivery: it
// records what the cores send through it.
type fakePort struct {
	nbrs []graph.Half
	sent []sim.Message
}

func (f *fakePort) ID() graph.NodeID                   { return 0 }
func (f *fakePort) Neighbors() []graph.Half            { return f.nbrs }
func (f *fakePort) Send(_ graph.NodeID, m sim.Message) { f.sent = append(f.sent, m) }

// resumeLog records each resume of a parked side and the Port it ran on.
type resumeLog struct{ ports []Port }

func (l *resumeLog) resume(p Port) { l.ports = append(l.ports, p) }

func newInterleaved() (*DFSCore, *CentrCore, *arbiter) {
	a, b := NewDFSCore(0), NewCentrCore(ModeMST, 0, 2)
	Interleave(a, b)
	return a, b, a.Gate.(sideA).r
}

// TestInterleavePermit checks the rule of §7.2: Permit = A iff
// W_a ≤ W_b, ties going to A, from both sides' reports.
func TestInterleavePermit(t *testing.T) {
	for _, c := range []struct{ wa, wb int64 }{
		{0, 0}, {3, 3}, {2, 5}, {5, 2}, {9, 10}, {10, 9},
	} {
		permitA := c.wa <= c.wb
		a, _, r := newInterleaved()
		r.bStarted, r.wb = true, c.wb
		if got := a.Gate.Report(&fakePort{}, c.wa, func(Port) {}); got != permitA {
			t.Errorf("A reports W_a=%d against W_b=%d: continues=%v, want %v", c.wa, c.wb, got, permitA)
		}
		_, b, r := newInterleaved()
		r.bStarted, r.wa = true, c.wa
		if got := b.Gate.Report(&fakePort{}, c.wb, func(Port) {}); got != !permitA {
			t.Errorf("B reports W_b=%d against W_a=%d: continues=%v, want %v", c.wb, c.wa, got, !permitA)
		}
	}
}

// TestInterleaveHandover walks the permit back and forth: the first
// handover to B starts MSTcentr, later ones resume it, and a parked
// side always resumes through the Port of the report that hands it the
// permit, never the one it parked on.
func TestInterleaveHandover(t *testing.T) {
	a, b, _ := newInterleaved()
	var resA, resB resumeLog

	// A outgrows W_b = 0: B starts on p1, adds the root's one edge
	// (W_b = 7 < W_a = 10, so it keeps the permit), invites node 1 and
	// opens the next phase.
	p1 := &fakePort{nbrs: []graph.Half{{To: 1, W: 7}}}
	if a.Gate.Report(p1, 10, resA.resume) {
		t.Fatal("A kept the permit at W_a=10 > W_b=0")
	}
	if !b.Member || b.CommEstimate != 7 || len(p1.sent) != 2 {
		t.Fatalf("first handover did not start MSTcentr: member=%v est=%d sent=%v", b.Member, b.CommEstimate, p1.sent)
	}

	// B's next phase ties A (W_b = W_a = 10): A resumes on p2.
	p2 := &fakePort{}
	if b.Gate.Report(p2, 10, resB.resume) {
		t.Fatal("B kept the permit at W_b=W_a=10")
	}
	if len(resA.ports) != 1 || resA.ports[0] != p2 {
		t.Fatalf("A resumed %d times, want once on the live port p2", len(resA.ports))
	}

	// A outgrows W_b again: B resumes on p3 instead of starting over.
	p3 := &fakePort{}
	if a.Gate.Report(p3, 11, resA.resume) {
		t.Fatal("A kept the permit at W_a=11 > W_b=10")
	}
	if len(resB.ports) != 1 || resB.ports[0] != p3 {
		t.Fatalf("B resumed %d times, want once on the live port p3", len(resB.ports))
	}
	if len(p3.sent) != 0 || b.CommEstimate != 7 {
		t.Fatalf("second handover restarted MSTcentr: sent=%v est=%d", p3.sent, b.CommEstimate)
	}
	if len(resA.ports) != 1 {
		t.Fatalf("parked A resumed again without a handover")
	}
}

// TestMessagePredicates checks that IsDFSMessage and IsCentrMessage
// claim exactly their own core's messages, so a hybrid can dispatch by
// type.
func TestMessagePredicates(t *testing.T) {
	dfs := []sim.Message{MsgDFSToken{}, MsgDFSBounce{}, MsgDFSBack{}, MsgDFSHome{}, MsgDFSResume{}}
	centr := []sim.Message{MsgCPhase{}, MsgCReport{}, MsgCAdd{}, MsgCInvite{}, MsgCDone{}}
	for _, m := range dfs {
		if !IsDFSMessage(m) || IsCentrMessage(m) {
			t.Errorf("%T: IsDFSMessage=%v IsCentrMessage=%v", m, IsDFSMessage(m), IsCentrMessage(m))
		}
	}
	for _, m := range centr {
		if IsDFSMessage(m) || !IsCentrMessage(m) {
			t.Errorf("%T: IsDFSMessage=%v IsCentrMessage=%v", m, IsDFSMessage(m), IsCentrMessage(m))
		}
	}
	if IsDFSMessage("kick") || IsCentrMessage("kick") {
		t.Error("a foreign message type was claimed")
	}
}
