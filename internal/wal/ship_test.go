package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bioopera/internal/codec"
)

// batch is one atomic batch as appended or as applied by a follower.
type batch struct {
	First uint64
	Recs  []string
}

// appendBatches appends n batches of 1–3 records of varied length and
// returns them as written.
func appendBatches(t *testing.T, l *Log, n int) []batch {
	t.Helper()
	var out []batch
	for i := 0; i < n; i++ {
		var recs [][]byte
		var strs []string
		for j := 0; j <= i%3; j++ {
			r := fmt.Sprintf("b%d.%d-%s", i, j, strings.Repeat("x", (i*7+j)%23))
			recs = append(recs, []byte(r))
			strs = append(strs, r)
		}
		first, err := l.AppendBatch(recs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, batch{first, strs})
	}
	return out
}

// from returns the batches starting at or after seq.
func from(bs []batch, seq uint64) []batch {
	for i, b := range bs {
		if b.First >= seq {
			return bs[i:]
		}
	}
	return nil
}

// recorder is a follower's apply side: it keeps every batch and snapshot
// it is handed and wakes waiters after each.
type recorder struct {
	mu      sync.Mutex
	batches []batch
	snaps   []string
	next    uint64 // sequence after the last applied record
	woke    chan struct{}
}

func newRecorder() *recorder { return &recorder{woke: make(chan struct{}, 1)} }

func (r *recorder) applyBatch(first uint64, records [][]byte) error {
	r.mu.Lock()
	b := batch{First: first}
	for _, rec := range records {
		b.Recs = append(b.Recs, string(rec))
	}
	r.batches = append(r.batches, b)
	r.next = first + uint64(len(records))
	r.mu.Unlock()
	r.wake()
	return nil
}

func (r *recorder) applySnapshot(seq uint64, data []byte) error {
	r.mu.Lock()
	r.snaps = append(r.snaps, fmt.Sprintf("%d:%s", seq, data))
	r.next = seq
	r.mu.Unlock()
	r.wake()
	return nil
}

func (r *recorder) wake() {
	select {
	case r.woke <- struct{}{}:
	default:
	}
}

// waitNext blocks until the follower has applied every record below next.
func (r *recorder) waitNext(t *testing.T, next uint64) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		r.mu.Lock()
		got := r.next
		r.mu.Unlock()
		if got >= next {
			return
		}
		select {
		case <-r.woke:
		case <-timeout:
			t.Fatalf("follower stuck at %d, want %d", got, next)
		}
	}
}

func (r *recorder) got() ([]batch, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]batch(nil), r.batches...), append([]string(nil), r.snaps...)
}

func startShipper(t *testing.T, opts ShipperOptions) *Shipper {
	t.Helper()
	s, err := NewShipper("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// follow dials addr from seq and runs the follower; the returned func
// closes it and returns Run's result.
func follow(t *testing.T, addr string, seq uint64, r *recorder) func() error {
	t.Helper()
	f, err := DialFollower(addr, FollowerOptions{From: seq, ApplyBatch: r.applyBatch, ApplySnapshot: r.applySnapshot})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Run() }()
	var once sync.Once
	var runErr error
	stop := func() error {
		once.Do(func() {
			f.Close()
			runErr = <-done
		})
		return runErr
	}
	t.Cleanup(func() { stop() })
	return stop
}

// TestShipBatchesAcrossRotation: a follower receives exactly the
// primary's batches — same boundaries, same records — across many
// segment rotations, both for history written before it connected and
// for batches committed while it follows.
func TestShipBatchesAcrossRotation(t *testing.T) {
	l := openT(t, t.TempDir(), Options{SegmentSize: 64, NoSync: true})
	want := appendBatches(t, l, 20)
	s := startShipper(t, ShipperOptions{Log: l})
	r := newRecorder()
	stop := follow(t, s.Addr(), 1, r)
	r.waitNext(t, l.NextSeq())
	for i, b := range appendBatches(t, l, 20) {
		want = append(want, b)
		if i%5 == 0 {
			r.waitNext(t, l.NextSeq())
		}
	}
	r.waitNext(t, l.NextSeq())
	if n := len(l.Segments()); n < 5 {
		t.Fatalf("only %d segments: rotation untested", n)
	}
	if got, _ := r.got(); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower applied\n%v\nwant\n%v", got, want)
	}
	if err := stop(); err != nil {
		t.Fatalf("Run after local Close = %v, want nil", err)
	}
}

// TestShipReconnectMidLog: a follower reconnecting from any batch
// boundary — a segment's first record or the middle of a segment —
// receives exactly the batches from there on.
func TestShipReconnectMidLog(t *testing.T) {
	l := openT(t, t.TempDir(), Options{SegmentSize: 96, NoSync: true})
	all := appendBatches(t, l, 15)
	s := startShipper(t, ShipperOptions{Log: l})
	for _, b := range all {
		r := newRecorder()
		stop := follow(t, s.Addr(), b.First, r)
		r.waitNext(t, l.NextSeq())
		if got, _ := r.got(); !reflect.DeepEqual(got, from(all, b.First)) {
			t.Fatalf("from %d: follower applied %v, want %v", b.First, got, from(all, b.First))
		}
		if err := stop(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShipTruncateUnderRetentionFloor: snapshots truncate the log while
// a follower's tail is open and appends continue. The retention floor
// must keep every record the tail has not read yet; the shipper has no
// snapshot source, so a gap would refuse the follower instead of being
// papered over.
func TestShipTruncateUnderRetentionFloor(t *testing.T) {
	l := openT(t, t.TempDir(), Options{SegmentSize: 64, NoSync: true})
	want := appendBatches(t, l, 1)
	s := startShipper(t, ShipperOptions{Log: l})
	r := newRecorder()
	follow(t, s.Addr(), 1, r)
	r.waitNext(t, l.NextSeq()) // the follower's cursor is registered
	for i := 0; i < 30; i++ {
		want = append(want, appendBatches(t, l, 3)...)
		if err := l.TruncateBefore(l.NextSeq()); err != nil {
			t.Fatal(err)
		}
	}
	r.waitNext(t, l.NextSeq())
	if got, _ := r.got(); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower applied %v, want %v", got, want)
	}
	if err := l.TruncateBefore(l.NextSeq()); err != nil {
		t.Fatal(err)
	}
	if oldest := l.OldestSeq(); oldest == 1 {
		t.Fatal("nothing was truncated: the floor was never exercised")
	}

	// The same at the tail itself, deterministically: the tail has read
	// its segment through and still holds it open when it is truncated.
	l2 := openT(t, t.TempDir(), Options{SegmentSize: 64, NoSync: true})
	all := appendBatches(t, l2, 12)
	tl := &tail{l: l2, seq: 1}
	defer tl.close()
	frames, _, _, err := tl.next(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := records(t, frames)
	l2.SetRetainFloor(tl.seq)
	if err := l2.TruncateBefore(l2.NextSeq()); err != nil {
		t.Fatal(err)
	}
	if oldest := l2.OldestSeq(); oldest != tl.seq {
		t.Fatalf("OldestSeq = %d, want the floor %d", oldest, tl.seq)
	}
	for {
		frames, _, n, err := tl.next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		got = append(got, records(t, frames)...)
	}
	var wantRecs []string
	for _, b := range all {
		wantRecs = append(wantRecs, b.Recs...)
	}
	if !reflect.DeepEqual(got, wantRecs) {
		t.Fatalf("tail read %v, want %v", got, wantRecs)
	}
}

// records splits shipped frames into their record strings.
func records(t *testing.T, frames []byte) []string {
	t.Helper()
	var out []string
	if _, err := walkFrames(frames, func(data []byte, _ bool) error {
		out = append(out, string(data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShipSnapshotBootstrapThenTail: a follower whose cursor is below
// the oldest retained segment is sent the snapshot first, then the tail
// from the snapshot's sequence, then what is committed afterwards.
func TestShipSnapshotBootstrapThenTail(t *testing.T) {
	l := openT(t, t.TempDir(), Options{SegmentSize: 64, NoSync: true})
	pre := appendBatches(t, l, 20)
	if err := l.TruncateBefore(l.NextSeq()); err != nil {
		t.Fatal(err)
	}
	oldest := l.OldestSeq()
	if oldest == 1 {
		t.Fatal("nothing truncated: bootstrap untested")
	}
	s := startShipper(t, ShipperOptions{Log: l, Snapshot: func() (uint64, []byte, error) {
		return oldest, []byte("image"), nil
	}})
	r := newRecorder()
	follow(t, s.Addr(), 1, r)
	r.waitNext(t, l.NextSeq())
	want := append([]batch(nil), from(pre, oldest)...)
	want = append(want, appendBatches(t, l, 6)...)
	r.waitNext(t, l.NextSeq())
	got, snaps := r.got()
	if wantSnap := []string{fmt.Sprintf("%d:image", oldest)}; !reflect.DeepEqual(snaps, wantSnap) {
		t.Fatalf("snapshots = %v, want %v", snaps, wantSnap)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("follower applied %v, want %v", got, want)
	}
}

// TestShipCorruptFrameRejected: a shipped payload with a flipped bit, or
// one that stops inside a batch, fails the follower with ErrCorrupt and
// applies none of it.
func TestShipCorruptFrameRejected(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{NoSync: true})
	bs := appendBatches(t, l, 3)
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	last := bs[len(bs)-1].Recs
	for name, payload := range map[string][]byte{
		"bit flip":           append(append([]byte(nil), seg[:len(seg)-1]...), seg[len(seg)-1]^0x01),
		"unterminated batch": seg[:len(seg)-headerLen-len(last[len(last)-1])],
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, _, _, err := readMsg(bufio.NewReader(conn)); err != nil {
					t.Error(err)
					return
				}
				if err := writeMsg(conn, new(codec.Encoder), kindFrames, 1, payload); err != nil {
					t.Error(err)
				}
				io.Copy(io.Discard, conn) // hold the stream open until the follower hangs up
			}()
			var applied int
			f, err := DialFollower(ln.Addr().String(), FollowerOptions{ApplyBatch: func(uint64, [][]byte) error {
				applied++
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				f.Close()
				<-done
			}()
			f.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if err := f.Run(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Run = %v, want ErrCorrupt", err)
			}
			if applied != 0 {
				t.Fatalf("%d batches applied from a corrupt payload", applied)
			}
		})
	}
}

// TestShipVersionMismatchRefused: a sync hello with another protocol
// version is answered with an error message, not a stream.
func TestShipVersionMismatchRefused(t *testing.T) {
	l := openT(t, t.TempDir(), Options{NoSync: true})
	appendBatches(t, l, 2)
	s := startShipper(t, ShipperOptions{Log: l})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMsg(conn, new(codec.Encoder), kindSync, 1, binary.AppendUvarint(nil, shipVersion+1)); err != nil {
		t.Fatal(err)
	}
	kind, _, payload, err := readMsg(bufio.NewReader(conn))
	if err != nil || kind != kindError || !strings.Contains(string(payload), "version") {
		t.Fatalf("reply = (kind %d, %q, %v), want a version error", kind, payload, err)
	}
}

// TestShipTailReadsOnce: over a run that rotates segments, with reads
// interleaved with appends, each next reads exactly the byte range its
// cursor moves over, and those ranges add up to the committed bytes on
// disk, each read once. A batch still being written past the frontier is
// never read.
func TestShipTailReadsOnce(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentSize: 128, NoSync: true})
	appendBatches(t, l, 1)
	tl := &tail{l: l, seq: 1}
	defer tl.close()
	var read []byte
	drain := func() {
		for {
			seg, off := tl.first, tl.off
			frames, first, n, err := tl.next(nil)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				return
			}
			if tl.first != seg {
				off = 0 // moved on to a new segment
			}
			if int64(len(frames)) != tl.off-off || first+uint64(n) != tl.seq {
				t.Fatalf("next returned %d bytes, %d records from %d; cursor moved %d→%d bytes, to seq %d",
					len(frames), n, first, off, tl.off, tl.seq)
			}
			read = append(read, frames...)
		}
	}
	active := func() string { segs := l.Segments(); return filepath.Join(dir, segName(segs[len(segs)-1])) }
	for i := 0; i < 40; i++ {
		appendBatches(t, l, 1+i%4)
		if i%3 != 0 {
			continue
		}
		// Half a frame past the frontier, as an append in flight leaves it.
		f, err := os.OpenFile(active(), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{0x40, 0, 0, 0, 1, 2})
		f.Close()
		drain()
		if err := os.Truncate(active(), l.size); err != nil {
			t.Fatal(err)
		}
	}
	drain()
	var disk []byte
	for _, first := range l.Segments() {
		b, err := os.ReadFile(filepath.Join(dir, segName(first)))
		if err != nil {
			t.Fatal(err)
		}
		disk = append(disk, b...)
	}
	if len(l.Segments()) < 5 {
		t.Fatalf("only %d segments: rotation untested", len(l.Segments()))
	}
	if !bytes.Equal(read, disk) {
		t.Fatalf("tail read %d bytes, %d committed on disk (or different bytes)", len(read), len(disk))
	}
	if tl.seq != l.NextSeq() {
		t.Fatalf("tail cursor %d, frontier %d", tl.seq, l.NextSeq())
	}
}

// FuzzShipDecode: the follower's message decoder — envelope, frame
// verification, batch split — never panics on arbitrary input.
func FuzzShipDecode(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	l.AppendBatch([][]byte{[]byte("one"), []byte("two")})
	l.Append([]byte("three"))
	l.Close()
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	msg := func(kind byte, seq uint64, payload []byte) []byte {
		var b bytes.Buffer
		writeMsg(&b, new(codec.Encoder), kind, seq, payload)
		return b.Bytes()
	}
	f.Add(msg(kindSync, 1, binary.AppendUvarint(nil, shipVersion)))
	f.Add(msg(kindFrames, 1, seg))
	f.Add(append(msg(kindSnapshot, 9, []byte("image")), msg(kindFrames, 9, seg)...))
	f.Add(msg(kindError, 0, []byte("refused")))
	f.Add(msg(kindFrames, 1, seg[:len(seg)-2]))
	f.Add([]byte{codec.Magic, codec.Version, kindFrames, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte(`{"type":"sync","from":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fl := &Follower{opts: FollowerOptions{
			ApplyBatch:    func(uint64, [][]byte) error { return nil },
			ApplySnapshot: func(uint64, []byte) error { return nil },
		}}
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			kind, seq, payload, err := readMsg(r)
			if err != nil || fl.handle(kind, seq, payload) != nil {
				return
			}
		}
	})
}

// TestShipLag: Lag is the committed frontier minus the slowest connected
// follower's cursor, and 0 once no follower is connected.
func TestShipLag(t *testing.T) {
	l := openT(t, t.TempDir(), Options{NoSync: true})
	appendBatches(t, l, 5) // 9 records: the frontier is 10
	s := startShipper(t, ShipperOptions{Log: l})
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	s.setCursor(a, 4)
	s.setCursor(b, 8)
	if lag := s.Lag(); lag != 6 {
		t.Fatalf("Lag = %d, want 6", lag)
	}
	s.setCursor(a, 0)
	if lag := s.Lag(); lag != 2 {
		t.Fatalf("Lag after the slowest left = %d, want 2", lag)
	}
	s.setCursor(b, 0)
	if lag := s.Lag(); lag != 0 {
		t.Fatalf("Lag with no followers = %d, want 0", lag)
	}
}
