package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(from, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 0; i < 10; i++ {
		seq, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	recs := collect(t, l, 1)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		want := fmt.Sprintf("record-%d", i)
		if string(r.Data) != want || r.Seq != uint64(i+1) {
			t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, r.Seq, r.Data, i+1, want)
		}
	}
}

func TestReplayFrom(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	recs := collect(t, l, 15)
	if len(recs) != 6 {
		t.Fatalf("replayed %d, want 6", len(recs))
	}
	if recs[0].Seq != 15 || recs[0].Data[0] != 14 {
		t.Fatalf("first = (%d, %v)", recs[0].Seq, recs[0].Data)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append([]byte("x"))
	}
	l.Close()

	l2 := openT(t, dir, Options{})
	if l2.NextSeq() != 6 {
		t.Fatalf("NextSeq after reopen = %d, want 6", l2.NextSeq())
	}
	seq, err := l2.Append([]byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("append after reopen seq = %d, want 6", seq)
	}
	if got := len(collect(t, l2, 1)); got != 6 {
		t.Fatalf("replayed %d, want 6", got)
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 64})
	for i := 0; i < 30; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(l.Segments()); n < 3 {
		t.Fatalf("expected several segments, got %d", n)
	}
	recs := collect(t, l, 1)
	if len(recs) != 30 {
		t.Fatalf("replayed %d across segments, want 30", len(recs))
	}
	for i, r := range recs {
		if r.Data[0] != byte(i) {
			t.Fatalf("record %d has wrong payload", i)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	for i := 0; i < 5; i++ {
		l.Append([]byte("good"))
	}
	l.Close()

	// Simulate a crash mid-append: append garbage (a partial frame) to
	// the tail segment.
	segs, _ := os.ReadDir(dir)
	tail := filepath.Join(dir, segs[len(segs)-1].Name())
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}) // truncated header+data
	f.Close()

	l2 := openT(t, dir, Options{})
	recs := collect(t, l2, 1)
	if len(recs) != 5 {
		t.Fatalf("after torn tail, replayed %d records, want 5", len(recs))
	}
	// And the log accepts new appends with the right sequence.
	seq, err := l2.Append([]byte("after-crash"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("seq after repair = %d, want 6", seq)
	}
	recs = collect(t, l2, 1)
	if len(recs) != 6 || string(recs[5].Data) != "after-crash" {
		t.Fatalf("post-repair replay wrong: %d records", len(recs))
	}
}

func TestTornChecksumTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	l.Append([]byte("one"))
	l.Append([]byte("two"))
	l.Close()

	// Flip a bit in the *last* record's data: treated as torn, dropped.
	segs, _ := os.ReadDir(dir)
	tail := filepath.Join(dir, segs[0].Name())
	data, _ := os.ReadFile(tail)
	data[len(data)-1] ^= 0xff
	os.WriteFile(tail, data, 0o644)

	l2 := openT(t, dir, Options{})
	recs := collect(t, l2, 1)
	if len(recs) != 1 || string(recs[0].Data) != "one" {
		t.Fatalf("replayed %v, want just 'one'", recs)
	}
}

func TestInteriorCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{SegmentSize: 32})
	for i := 0; i < 10; i++ {
		l.Append(bytes.Repeat([]byte{byte(i)}, 16))
	}
	l.Close()

	// Corrupt the FIRST segment (not the tail).
	segs, _ := os.ReadDir(dir)
	first := filepath.Join(dir, segs[0].Name())
	data, _ := os.ReadFile(first)
	data[len(data)-1] ^= 0xff
	os.WriteFile(first, data, 0o644)

	_, err := Open(dir, Options{SegmentSize: 32})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with interior corruption = %v, want ErrCorrupt", err)
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 40})
	for i := 0; i < 20; i++ {
		l.Append(bytes.Repeat([]byte{byte(i)}, 16))
	}
	before := len(l.Segments())
	if before < 4 {
		t.Fatalf("want several segments, got %d", before)
	}
	if err := l.TruncateBefore(15); err != nil {
		t.Fatal(err)
	}
	after := len(l.Segments())
	if after >= before {
		t.Fatalf("TruncateBefore removed nothing (%d -> %d)", before, after)
	}
	// Records ≥ 15 still replayable.
	recs := collect(t, l, 15)
	if len(recs) != 6 {
		t.Fatalf("replayed %d records from 15, want 6", len(recs))
	}
	// Appends still work after truncation.
	if _, err := l.Append([]byte("post")); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRecord(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l, 1)
	if len(recs) != 1 || len(recs[0].Data) != 0 {
		t.Fatalf("empty record round-trip failed: %v", recs)
	}
}

func TestReplayErrorPropagates(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	l.Append([]byte("a"))
	sentinel := errors.New("stop")
	err := l.Replay(1, func(Record) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("Replay error = %v, want sentinel", err)
	}
}

// Property: any sequence of payloads round-trips bit-exactly through
// append + reopen + replay, across segment rotations.
func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentSize: 128})
		if err != nil {
			return false
		}
		for _, p := range payloads {
			if _, err := l.Append(p); err != nil {
				return false
			}
		}
		l.Close()
		l2, err := Open(dir, Options{SegmentSize: 128})
		if err != nil {
			return false
		}
		defer l2.Close()
		var got [][]byte
		l2.Replay(1, func(r Record) error {
			got = append(got, r.Data)
			return nil
		})
		if len(got) != len(payloads) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := l.AppendBatch(nil); err != nil || seq != 0 {
		t.Fatalf("empty batch = (%d, %v), want (0, nil)", seq, err)
	}
	syncsBefore := l.Syncs()
	batch := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	seq, err := l.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first batch seq = %d, want 1", seq)
	}
	if got := l.Syncs() - syncsBefore; got != 1 {
		t.Fatalf("batch of 3 took %d fsyncs, want 1", got)
	}
	// Sequence numbering continues past the whole batch.
	seq2, err := l.Append([]byte("four"))
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != 4 {
		t.Fatalf("append after batch seq = %d, want 4", seq2)
	}
	l.Close()

	// Replay sees every record, flags masked.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []string
	if err := l2.Replay(1, func(r Record) error {
		got = append(got, string(r.Data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"one", "two", "three", "four"}
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}
}

// TestCrashMidBatchAtEveryByte is the group-commit atomicity test: a log
// holding two single records followed by a 4-record batch is truncated at
// every byte offset. Recovery must see either none of the batch or all of
// it — never a partial batch — and single records recover individually as
// before.
func TestCrashMidBatchAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	singles := [][]byte{[]byte("alpha"), []byte("beta-beta")}
	for _, rec := range singles {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	batch := [][]byte{
		[]byte("b0"),
		bytes.Repeat([]byte("b1"), 9),
		[]byte("b2-middle"),
		bytes.Repeat([]byte("b3"), 4),
	}
	if _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	l.Close()
	segs, err := os.ReadDir(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d (%v)", len(segs), err)
	}
	segName := segs[0].Name()
	full, err := os.ReadFile(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}

	// Byte offsets at which each single record commits, and the offset at
	// which the whole batch commits (its final frame's end).
	var commitPoints []int // commitPoints[i] = bytes needed for i+1 records
	off := 0
	for _, rec := range singles {
		off += headerLen + len(rec)
		commitPoints = append(commitPoints, off)
	}
	batchStart := off
	for _, rec := range batch {
		off += headerLen + len(rec)
	}
	batchEnd := off
	_ = batchStart

	want := func(cut int) int {
		n := 0
		for _, p := range commitPoints {
			if cut >= p {
				n++
			}
		}
		if cut >= batchEnd {
			n += len(batch)
		}
		return n
	}

	all := append(append([][]byte{}, singles...), batch...)
	for cut := 0; cut <= len(full); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, segName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(cutDir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		var got [][]byte
		if err := l2.Replay(1, func(r Record) error {
			got = append(got, r.Data)
			return nil
		}); err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}
		wantN := want(cut)
		if len(got) != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d (batch must be all-or-nothing)", cut, len(got), wantN)
		}
		for i := range got {
			if !bytes.Equal(got[i], all[i]) {
				t.Fatalf("cut %d: record %d corrupted", cut, i)
			}
		}
		// The repaired log accepts appends with the right sequence.
		seq, err := l2.Append([]byte("post-crash"))
		if err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		if seq != uint64(wantN+1) {
			t.Fatalf("cut %d: post-crash seq = %d, want %d", cut, seq, wantN+1)
		}
		l2.Close()
	}
}

func TestAppendAllocs(t *testing.T) {
	// The frame encode buffer is pooled: steady-state appends must not
	// allocate (NoSync isolates the encode path from fsync syscalls).
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	data := make([]byte, 256)
	batch := [][]byte{data, data, data, data}
	if _, err := l.Append(data); err != nil {
		t.Fatal(err) // warm the pool
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(data); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Append = %.1f allocs/op, want <= 1", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("AppendBatch(4) = %.1f allocs/op, want <= 1", got)
	}
}

// TestAppendFailureIsSticky: once a batch's write fails, the segment may
// hold torn bytes past the committed frontier, so the log must refuse
// every later append — even after the fault clears — rather than land a
// batch behind those bytes, where reopening would truncate it away.
func TestAppendFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch([][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(l.Segments()[0]))
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	writable := l.file
	l.file = ro
	if _, err := l.Append([]byte("fails")); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	// The failed write left a torn frame behind, and the fault clears.
	if _, err := writable.Write([]byte{0x20, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	l.file = writable
	ro.Close()
	if _, err := l.AppendBatch([][]byte{[]byte("d")}); err == nil {
		t.Fatal("append after a failed append succeeded; it would land behind the torn bytes")
	}
	l.Close()

	l2 := openT(t, dir, Options{})
	var got []string
	for _, r := range collect(t, l2, 1) {
		got = append(got, string(r.Data))
	}
	if want := []string{"a", "b", "c"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reopened log replays %v, want the committed %v", got, want)
	}
	if seq, err := l2.Append([]byte("d")); err != nil || seq != 4 {
		t.Fatalf("append after reopen = (%d, %v), want (4, nil)", seq, err)
	}
}
