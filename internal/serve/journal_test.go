package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jline renders one journal line for synthetic test journals.
func jline(t *testing.T, seq uint64, op, job string, extra map[string]any) string {
	t.Helper()
	m := map[string]any{"v": 1, "seq": seq, "op": op, "job": job, "ts": 1000 + int64(seq)}
	for k, v := range extra {
		m[k] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshalling test record: %v", err)
	}
	return string(b) + "\n"
}

func specJSON(t *testing.T) map[string]any {
	t.Helper()
	sp := validSpec()
	if err := sp.Normalize(); err != nil {
		t.Fatalf("normalizing test spec: %v", err)
	}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("marshalling test spec: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("unmarshalling test spec: %v", err)
	}
	return m
}

// TestJournalDecodeGolden pins the decoder's verdict on a family of
// synthetic journals: healthy histories recover, torn tails are
// tolerated and truncated, and every mid-file or semantic violation is
// a typed *JournalCorruptError naming its line.
func TestJournalDecodeGolden(t *testing.T) {
	spec := func() map[string]any { return map[string]any{"spec": specJSON(t)} }
	result := map[string]any{"result": "{\"x\": 1}\n"}
	fail := map[string]any{"reason": "deadline", "detail": "too slow"}

	t.Run("healthy incomplete and terminal jobs", func(t *testing.T) {
		data := jline(t, 1, "submitted", "job-000001", spec()) +
			jline(t, 2, "started", "job-000001", nil) +
			jline(t, 3, "finished", "job-000001", result) +
			jline(t, 4, "submitted", "job-000002", spec()) +
			jline(t, 5, "started", "job-000002", nil) +
			jline(t, 6, "submitted", "job-000003", spec())
		rec, good, err := decodeJournal([]byte(data))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if good != int64(len(data)) || rec.TornTail {
			t.Fatalf("healthy journal misread: good=%d want=%d torn=%v", good, len(data), rec.TornTail)
		}
		if len(rec.Jobs) != 3 || rec.Incomplete() != 2 {
			t.Fatalf("got %d jobs, %d incomplete; want 3 jobs, 2 incomplete", len(rec.Jobs), rec.Incomplete())
		}
		if !rec.Jobs[0].Done || string(rec.Jobs[0].Result) != "{\"x\": 1}\n" {
			t.Fatalf("job 1 should be done with its persisted result, got %+v", rec.Jobs[0])
		}
		// Re-run jobs come back in original submission order.
		if rec.Jobs[1].ID != "job-000002" || rec.Jobs[2].ID != "job-000003" {
			t.Fatalf("recovery order broken: %s, %s", rec.Jobs[1].ID, rec.Jobs[2].ID)
		}
		if rec.NextSeq != 6 || rec.MaxID != 3 {
			t.Fatalf("NextSeq=%d MaxID=%d, want 6 and 3", rec.NextSeq, rec.MaxID)
		}
	})

	t.Run("failed job restores its typed reason", func(t *testing.T) {
		data := jline(t, 1, "submitted", "job-000001", spec()) +
			jline(t, 2, "started", "job-000001", nil) +
			jline(t, 3, "failed", "job-000001", fail)
		rec, _, err := decodeJournal([]byte(data))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		j := rec.Jobs[0]
		if !j.Failed || j.Reason != ReasonDeadline || j.Detail != "too slow" {
			t.Fatalf("failed job misrestored: %+v", j)
		}
	})

	t.Run("rejected admission burns the id but is not a job", func(t *testing.T) {
		data := jline(t, 1, "submitted", "job-000001", spec()) +
			jline(t, 2, "rejected", "job-000001", nil) +
			jline(t, 3, "submitted", "job-000002", spec())
		rec, _, err := decodeJournal([]byte(data))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "job-000002" {
			t.Fatalf("rejected admission leaked into jobs: %+v", rec.Jobs)
		}
		if rec.MaxID != 2 {
			t.Fatalf("MaxID=%d; the rejected id must stay burnt (want 2)", rec.MaxID)
		}
	})

	t.Run("torn tails are tolerated", func(t *testing.T) {
		whole := jline(t, 1, "submitted", "job-000001", spec())
		for _, tail := range []string{
			"{\"v\":1,\"seq\":2,\"op\":\"sta",                                   // cut mid-record
			strings.TrimSuffix(jline(t, 2, "started", "job-000001", nil), "\n"), // parseable, no newline
			"garbage\n", // unparseable but newline-terminated final line
		} {
			rec, good, err := decodeJournal([]byte(whole + tail))
			if err != nil {
				t.Fatalf("torn tail %q should recover, got %v", tail, err)
			}
			if !rec.TornTail || good != int64(len(whole)) {
				t.Fatalf("torn tail %q: torn=%v good=%d want good=%d", tail, rec.TornTail, good, len(whole))
			}
			if len(rec.Jobs) != 1 || rec.NextSeq != 1 {
				t.Fatalf("torn tail %q corrupted the good prefix: %+v", tail, rec)
			}
		}
	})

	t.Run("corruption is typed and names its line", func(t *testing.T) {
		pre := jline(t, 1, "submitted", "job-000001", spec())
		post := jline(t, 3, "submitted", "job-000002", spec()) // keeps the bad line non-final
		cases := []struct {
			name string
			bad  string
		}{
			{"mid-file garbage", "not json\n"},
			{"out-of-order seq", jline(t, 7, "started", "job-000001", nil)},
			{"unknown op", jline(t, 2, "exploded", "job-000001", nil)},
			{"unknown version", strings.Replace(jline(t, 2, "started", "job-000001", nil), "\"v\":1", "\"v\":9", 1)},
			{"unknown field", strings.Replace(jline(t, 2, "started", "job-000001", nil), "\"op\"", "\"oops\":true,\"op\"", 1)},
			{"malformed job id", jline(t, 2, "started", "job-1", nil)},
			{"duplicate submitted", jline(t, 2, "submitted", "job-000001", spec())},
			{"started before submitted", jline(t, 2, "started", "job-000009", nil)},
			{"finished before started", jline(t, 2, "finished", "job-000001", result)},
			{"finished without result", jline(t, 2, "finished", "job-000001", nil)},
			{"failed with unknown reason", jline(t, 2, "failed", "job-000001", map[string]any{"reason": "gremlins"})},
			{"submitted without spec", jline(t, 2, "submitted", "job-000002", nil)},
			{"submitted with invalid spec", jline(t, 2, "submitted", "job-000002", map[string]any{"spec": map[string]any{"experiment": "nope"}})},
		}
		for _, tc := range cases {
			_, _, err := decodeJournal([]byte(pre + tc.bad + post))
			var ce *JournalCorruptError
			if !errors.As(err, &ce) {
				t.Errorf("%s: want *JournalCorruptError, got %v", tc.name, err)
				continue
			}
			if ce.Line != 2 {
				t.Errorf("%s: corruption at line %d, want 2", tc.name, ce.Line)
			}
		}
		// records after a terminal state are their own violation
		term := pre + jline(t, 2, "started", "job-000001", nil) + jline(t, 3, "finished", "job-000001", result)
		for _, bad := range []string{
			jline(t, 4, "started", "job-000001", nil),
			jline(t, 4, "failed", "job-000001", fail),
			jline(t, 4, "rejected", "job-000001", nil),
		} {
			_, _, err := decodeJournal([]byte(term + bad + post))
			var ce *JournalCorruptError
			if !errors.As(err, &ce) || ce.Line != 4 {
				t.Errorf("record after terminal: want corruption at line 4, got %v", err)
			}
		}
	})

	t.Run("empty journal is a clean slate", func(t *testing.T) {
		rec, good, err := decodeJournal(nil)
		if err != nil || good != 0 || len(rec.Jobs) != 0 || rec.TornTail {
			t.Fatalf("empty journal: rec=%+v good=%d err=%v", rec, good, err)
		}
	})
}

// TestOpenJournalTruncatesTornTail pins OpenJournal's repair: the torn
// tail is physically removed so the next append continues the good
// stream, and a reopened journal decodes clean.
func TestOpenJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	good := jline(t, 1, "submitted", "job-000001", map[string]any{"spec": specJSON(t)}) +
		jline(t, 2, "started", "job-000001", nil)
	if err := os.WriteFile(path, []byte(good+`{"v":1,"seq":3,"op":"fini`), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if !rec.TornTail || rec.NextSeq != 2 || rec.Incomplete() != 1 {
		t.Fatalf("recovery misread torn journal: %+v", rec)
	}
	if err := jl.append(journalRecord{Op: opFinished, Job: "job-000001", Result: "{}\n"}); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	if err := jl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec2, goodN, err := decodeJournal(data)
	if err != nil {
		t.Fatalf("reopened journal should be clean, got %v", err)
	}
	if rec2.TornTail || goodN != int64(len(data)) || rec2.NextSeq != 3 {
		t.Fatalf("repair left damage: torn=%v good=%d/%d seq=%d", rec2.TornTail, goodN, len(data), rec2.NextSeq)
	}
	if len(rec2.Jobs) != 1 || !rec2.Jobs[0].Done {
		t.Fatalf("job should be done after the appended finish: %+v", rec2.Jobs)
	}
}

// TestOpenJournalRejectsCorruption: mid-file damage must fail startup
// with the decoder's typed error, not limp along.
func TestOpenJournalRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	data := "garbage\n" + jline(t, 1, "submitted", "job-000001", map[string]any{"spec": specJSON(t)})
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(path)
	var ce *JournalCorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *JournalCorruptError, got %v", err)
	}
}

// TestJournalAppendRoundTrip: what append writes, decode restores —
// including a result payload with embedded newlines (escaped in the
// record, exact after the round trip).
func TestJournalAppendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, rec, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 0 {
		t.Fatalf("fresh journal has jobs: %+v", rec.Jobs)
	}
	sp := validSpec()
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	result := "{\n  \"lines\": true\n}\n"
	for _, r := range []journalRecord{
		{Op: opSubmitted, Job: "job-000001", Spec: &sp},
		{Op: opStarted, Job: "job-000001"},
		{Op: opFinished, Job: "job-000001", Result: result},
	} {
		if err := jl.append(r); err != nil {
			t.Fatalf("append %s: %v", r.Op, err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec2.Jobs) != 1 || !rec2.Jobs[0].Done {
		t.Fatalf("round trip lost the job: %+v", rec2.Jobs)
	}
	if !bytes.Equal(rec2.Jobs[0].Result, []byte(result)) {
		t.Fatalf("result bytes changed across the round trip:\n%q\n%q", rec2.Jobs[0].Result, result)
	}
	if rec2.Jobs[0].Spec.Experiment != sp.Experiment || rec2.Jobs[0].Spec.Trials != sp.Trials {
		t.Fatalf("spec changed across the round trip: %+v", rec2.Jobs[0].Spec)
	}
}

// TestJournalFailedAppendLeavesNoGap: an append whose write fails —
// the journal's handle swapped for a read-only one, standing in for
// ENOSPC or EIO — consumes no seq and leaves nothing in the file, so
// the next append continues the dense sequence and the journal reopens
// clean.
func TestJournalFailedAppendLeavesNoGap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sp := validSpec()
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := jl.append(journalRecord{Op: opSubmitted, Job: "job-000001", Spec: &sp}); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	rw := jl.f
	jl.f = ro
	if err := jl.append(journalRecord{Op: opStarted, Job: "job-000001"}); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	jl.f = rw
	for _, r := range []journalRecord{
		{Op: opStarted, Job: "job-000001"},
		{Op: opFinished, Job: "job-000001", Result: "{}\n"},
	} {
		if err := jl.append(r); err != nil {
			t.Fatalf("append %s after the failed one: %v", r.Op, err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenJournal(path)
	var ce *JournalCorruptError
	if errors.As(err, &ce) {
		t.Fatalf("a failed append corrupted the journal: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rec.NextSeq != 3 || rec.TornTail || len(rec.Jobs) != 1 || !rec.Jobs[0].Done {
		t.Fatalf("want seqs 1..3 and one finished job, got %+v", rec)
	}
}

// TestJournalUnrollableAppendFailsLater: when a record has reached the
// handle but cannot be made durable, and truncating it away fails too —
// a pipe takes the write, then refuses both fsync and truncate — the
// journal refuses every later append, even through a good handle,
// rather than write after a torn line.
func TestJournalUnrollableAppendFailsLater(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	rw := jl.f
	jl.f = pw
	if err := jl.append(journalRecord{Op: opStarted, Job: "job-000001"}); err == nil {
		t.Fatal("append to a pipe reported durable")
	}
	jl.f = rw
	if err := jl.append(journalRecord{Op: opStarted, Job: "job-000001"}); err == nil {
		t.Fatal("append after a failed rollback succeeded")
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) != 0 {
		t.Fatalf("journal holds %q (%v), want nothing", data, err)
	}
}

// TestJournalNilIsNoop: a journal-less server calls the same appends;
// they must all be free no-ops.
func TestJournalNilIsNoop(t *testing.T) {
	var jl *Journal
	if err := jl.append(journalRecord{Op: opStarted, Job: "job-000001"}); err != nil {
		t.Fatalf("nil append: %v", err)
	}
	if err := jl.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
	if jl.Path() != "" {
		t.Fatalf("nil path: %q", jl.Path())
	}
}

// FuzzJournalDecode holds the decoder to its two promises on arbitrary
// bytes: it never panics, and it classifies every input as healthy,
// torn-tail recoverable, or typed mid-file corruption — nothing else.
// For recoverable verdicts the good prefix must itself decode clean
// (truncating to good and retrying cannot fail), which is exactly the
// repair OpenJournal performs.
func FuzzJournalDecode(f *testing.F) {
	sp := validSpec()
	if err := sp.Normalize(); err != nil {
		f.Fatal(err)
	}
	specB, err := json.Marshal(sp)
	if err != nil {
		f.Fatal(err)
	}
	mk := func(seq uint64, op, job, extra string) string {
		s := fmt.Sprintf(`{"v":1,"seq":%d,"op":%q,"job":%q,"ts":%d`, seq, op, job, 1000+seq)
		return s + extra + "}\n"
	}
	healthy := mk(1, "submitted", "job-000001", `,"spec":`+string(specB)) +
		mk(2, "started", "job-000001", "") +
		mk(3, "finished", "job-000001", `,"result":"{}\n"`)
	f.Add([]byte(healthy))
	f.Add([]byte(healthy[:len(healthy)-9])) // truncated tail
	f.Add([]byte(healthy + "garbage"))
	f.Add([]byte("garbage\n" + healthy))                             // mid-file garbage
	f.Add([]byte(strings.Replace(healthy, `"seq":2`, `"seq":9`, 1))) // seq gap
	f.Add([]byte(strings.Replace(healthy, "started", "exploded", 1)))
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"v":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, good, err := decodeJournal(data) // must not panic
		if err != nil {
			var ce *JournalCorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is not a *JournalCorruptError: %v", err)
			}
			if ce.Line < 1 {
				t.Fatalf("corruption without a line number: %+v", ce)
			}
			return
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [0, %d]", good, len(data))
		}
		if rec.TornTail != (good < int64(len(data))) {
			t.Fatalf("torn-tail flag disagrees with offset: torn=%v good=%d len=%d", rec.TornTail, good, len(data))
		}
		// The repaired prefix must decode clean — recovery's truncation
		// cannot manufacture new corruption.
		rec2, good2, err2 := decodeJournal(data[:good])
		if err2 != nil || good2 != good || rec2.TornTail {
			t.Fatalf("good prefix does not re-decode clean: err=%v good=%d/%d torn=%v", err2, good2, good, rec2.TornTail)
		}
		if len(rec2.Jobs) != len(rec.Jobs) {
			t.Fatalf("prefix decode changed the job set: %d vs %d", len(rec2.Jobs), len(rec.Jobs))
		}
	})
}
