// Package wal implements a segmented write-ahead log.
//
// The BioOpera store appends every state transition of every process
// instance to this log before acting on it; crash recovery replays the log
// over the latest snapshot. Records are length-prefixed and CRC-32
// checksummed so a torn write at the tail (the only corruption an
// append-only file can suffer from a crash) is detected and the log is
// truncated to the last complete record.
//
// On-disk layout of a directory managed by this package:
//
//	wal-00000000000000000001.log   records 1..n
//	wal-00000000000000000042.log   records 42..m
//
// Each segment file is a sequence of frames:
//
//	uint32 little-endian length | uint32 little-endian CRC-32 (IEEE) of data | data
//
// The high bit of the length word is the batch-continuation flag: a frame
// with the flag set belongs to an atomic batch whose remaining frames
// follow (the final frame of a batch has the flag clear, as does every
// standalone record). A batch is committed only by its final frame, so a
// crash in the middle of a group-committed batch truncates the log back to
// the batch's first frame — batches replay all-or-nothing.
//
// Sequence numbers are implicit: the first record of a segment has the
// sequence encoded in the file name, and records are dense within and
// across segments.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bioopera/internal/obs"
)

const (
	segPrefix = "wal-"
	segSuffix = ".log"
	headerLen = 8 // length + crc

	// batchFlag marks a frame whose batch continues in the next frame.
	batchFlag    uint32 = 1 << 31
	maxRecordLen        = 1<<31 - 1
)

// DefaultSegmentSize is the byte threshold after which a new segment file
// is started. Exported so tests can exercise rotation with tiny segments.
const DefaultSegmentSize = 4 << 20

// ErrCorrupt is returned when a record in the interior of the log (not the
// tail) fails its checksum, which indicates real corruption rather than a
// torn write.
var ErrCorrupt = errors.New("wal: corrupt record")

// framePool recycles AppendBatch's frame-encoding buffer. The buffer lives
// only between frame assembly and the file write, so pooling it removes the
// per-append allocation from the engine's checkpoint hot path.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// framePoolMax is the largest buffer the pool retains: an occasional huge
// batch should not pin its buffer for the rest of the process's life.
const framePoolMax = 1 << 20

// Record is one entry read back from the log.
type Record struct {
	Seq  uint64 // 1-based, dense
	Data []byte
}

// Options configure a Log.
type Options struct {
	// SegmentSize is the rotation threshold in bytes. Zero means
	// DefaultSegmentSize.
	SegmentSize int64
	// NoSync disables fsync after each append. Experiments use it; the
	// durability tests do not.
	NoSync bool
	// AppendLatency, when non-nil, observes the wall time of each
	// AppendBatch call (seconds, fsync included).
	AppendLatency *obs.Histogram
	// SyncLatency, when non-nil, observes the fsync portion alone.
	SyncLatency *obs.Histogram
}

// Log is a segmented write-ahead log. It is safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	dir     string
	opts    Options
	file    *os.File
	size    int64  // bytes written to current segment
	nextSeq uint64 // sequence the next Append will get
	segs    []uint64
	syncs   uint64 // fsyncs issued by appends (group-commit metric)
	closed  bool
	// err is sticky: after a failed write or fsync the segment may hold
	// torn or unacknowledged bytes past size, which reopening repairs; a
	// batch appended behind them would be lost or shifted on reopen.
	err error

	// commitC is closed and replaced whenever a batch commits, waking
	// WaitCommitted callers (the shipping path's notification channel).
	commitC chan struct{}
	// retain is the lowest sequence TruncateBefore must keep on disk
	// (0 = unconstrained). The shipper pins it to its slowest follower's
	// cursor so snapshots cannot truncate records a standby still needs.
	retain uint64
}

// Open opens (creating if necessary) the log in dir. It scans existing
// segments, verifies the tail, and truncates any torn final record.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1, commitC: make(chan struct{})}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// scan discovers segments, repairs the tail segment, and positions the
// writer after the last valid record.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.segs = l.segs[:0]
	for _, e := range entries {
		if first, ok := parseSegName(e.Name()); ok {
			l.segs = append(l.segs, first)
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i] < l.segs[j] })
	if len(l.segs) == 0 {
		return nil
	}
	// Count records in all but the last segment; repair the last.
	for i, first := range l.segs {
		path := filepath.Join(l.dir, segName(first))
		last := i == len(l.segs)-1
		n, validBytes, err := countRecords(path, last)
		if err != nil {
			return err
		}
		if last {
			if err := os.Truncate(path, validBytes); err != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.file = f
			l.size = validBytes
		}
		l.nextSeq = first + uint64(n)
	}
	return nil
}

// countRecords returns the number of committed records in the segment and
// the byte offset just past the last committed record. A record is
// committed once the frame that closes its batch (continuation flag clear)
// is intact; a torn tail — including a batch whose final frame never made
// it to disk — rolls back to the previous commit point. For non-tail
// segments a bad checksum or unterminated batch is ErrCorrupt; for the
// tail it just ends the scan (torn write).
func countRecords(path string, tail bool) (n int, validBytes int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	seen := 0 // records walked, including an open batch prefix
	var cur int64
	walked, err := walkFrames(b, func(data []byte, more bool) error {
		seen++
		cur += headerLen + int64(len(data))
		if !more {
			n, validBytes = seen, cur
		}
		return nil
	})
	if !tail && (err != nil || walked != len(b) || seen != n) {
		return 0, 0, fmt.Errorf("%w: torn frame or unterminated batch in %s", ErrCorrupt, path)
	}
	return n, validBytes, nil
}

// walkFrames is the one frame parser, for scan, the tail cursor and the
// shipping follower. It calls fn for each whole frame at the start of b
// with its data (aliasing b) and batch-continuation flag, and returns the
// bytes walked: an incomplete final frame is left unwalked. A checksum
// mismatch stops it with ErrCorrupt, an error from fn before that frame.
func walkFrames(b []byte, fn func(data []byte, more bool) error) (int, error) {
	off := 0
	for len(b)-off >= headerLen {
		raw := binary.LittleEndian.Uint32(b[off:])
		end := off + headerLen + int(raw&^batchFlag)
		if end > len(b) {
			break
		}
		data := b[off+headerLen : end : end]
		if crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(b[off+4:]) {
			return off, ErrCorrupt
		}
		if err := fn(data, raw&batchFlag != 0); err != nil {
			return off, err
		}
		off = end
	}
	return off, nil
}

// NextSeq returns the sequence number the next Append will receive.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Append writes data as the next record and returns its sequence number.
func (l *Log) Append(data []byte) (uint64, error) {
	return l.AppendBatch([][]byte{data})
}

// AppendBatch writes all records as one atomic batch with a single fsync
// (group commit) and returns the sequence number of the first record. A
// crash mid-batch replays as if the batch was never written. An empty
// batch is a no-op.
func (l *Log) AppendBatch(records [][]byte) (uint64, error) {
	if len(records) == 0 {
		return 0, nil
	}
	var start time.Time
	if l.opts.AppendLatency != nil {
		//bioopera:allow walltime latency histogram observes real I/O time; it never feeds back into replayable state
		start = time.Now()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.file == nil || l.size >= l.opts.SegmentSize {
		// Rotation happens only between batches, never inside one, so
		// a batch's frames are always contiguous in one segment (an
		// oversized batch just overshoots the threshold).
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	total := 0
	for _, data := range records {
		if len(data) > maxRecordLen {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds maximum", len(data))
		}
		total += headerLen + len(data)
	}
	bufp := framePool.Get().(*[]byte)
	buf := (*bufp)[:0]
	var hdr [headerLen]byte
	for i, data := range records {
		length := uint32(len(data))
		if i < len(records)-1 {
			length |= batchFlag
		}
		binary.LittleEndian.PutUint32(hdr[0:4], length)
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(data))
		buf = append(buf, hdr[:]...)
		buf = append(buf, data...)
	}
	_, err := l.file.Write(buf)
	// Return the buffer before the error check (no defer: the closure
	// would allocate on every append) — nothing below reads it.
	*bufp = buf
	if cap(buf) <= framePoolMax {
		framePool.Put(bufp)
	}
	if err == nil && !l.opts.NoSync {
		var syncStart time.Time
		if l.opts.SyncLatency != nil {
			//bioopera:allow walltime latency histogram observes real fsync time; it never feeds back into replayable state
			syncStart = time.Now()
		}
		err = l.file.Sync()
		if l.opts.SyncLatency != nil {
			//bioopera:allow walltime latency histogram observes real fsync time; it never feeds back into replayable state
			l.opts.SyncLatency.Observe(time.Since(syncStart).Seconds())
		}
		l.syncs++
	}
	if err != nil {
		l.err = fmt.Errorf("wal: append failed, reopen to repair: %w", err)
		return 0, l.err
	}
	l.size += int64(total)
	seq := l.nextSeq
	l.nextSeq += uint64(len(records))
	l.notifyLocked()
	if l.opts.AppendLatency != nil {
		//bioopera:allow walltime latency histogram observes real I/O time; it never feeds back into replayable state
		l.opts.AppendLatency.Observe(time.Since(start).Seconds())
	}
	return seq, nil
}

// Syncs reports how many fsyncs the log has issued since Open (appends
// only; Close's final flush is not counted). Benchmarks use it to measure
// group-commit amortization.
func (l *Log) Syncs() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// rotateLocked closes the current segment and opens a new one whose name
// carries the next sequence number.
func (l *Log) rotateLocked() error {
	if l.file != nil {
		if err := l.file.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	path := filepath.Join(l.dir, segName(l.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.file = f
	l.size = 0
	l.segs = append(l.segs, l.nextSeq)
	return nil
}

// Replay calls fn for every committed record with sequence ≥ from, in
// order. Each Record's Data is the caller's own copy.
func (l *Log) Replay(from uint64, fn func(Record) error) error {
	t := &tail{l: l, seq: max(from, l.OldestSeq())}
	defer t.close()
	for {
		if _, _, n, err := t.next(func(r Record) error {
			r.Data = bytes.Clone(r.Data)
			return fn(r)
		}); err != nil || n == 0 {
			return err
		}
	}
}

// tail is a read position in the log — the open segment, the byte offset
// of its next unread frame and that frame's sequence — through which Replay
// and every shipping session read each committed byte once.
type tail struct {
	l     *Log
	seq   uint64   // sequence of the next record to return
	f     *os.File // nil until next opens the segment holding seq
	first uint64   // first sequence of f's segment
	off   int64    // byte offset in f of the next unread frame
	skip  uint64   // frames at off that precede seq, after (re)positioning
	buf   []byte   // reused by every read
}

// next reads the records committed past the cursor in its segment with one
// ReadAt — a sealed segment to its end, the active one only to the
// committed frontier — and returns their frames (the on-disk bytes of whole
// batches, valid until the next call), the first record's sequence and the
// record count, 0 when nothing new is committed. fn, when non-nil, sees
// each record, its Data aliasing the frames.
func (t *tail) next(fn func(Record) error) (frames []byte, first uint64, n int, err error) {
	seg, active, end, next := t.l.frontier(t.seq)
	if t.seq >= next || seg == 0 {
		return nil, t.seq, 0, nil // nothing committed past seq, or seq is truncated
	}
	if t.f != nil && seg != t.first {
		t.close() // read through: go on to the segment holding seq
	}
	if t.f == nil {
		if t.f, err = os.Open(filepath.Join(t.l.dir, segName(seg))); err != nil {
			return nil, 0, 0, fmt.Errorf("wal: %w", err)
		}
		t.first, t.off, t.skip = seg, 0, t.seq-seg
	}
	if t.first != active {
		// A sealed segment: appends moved past it, so read to its end.
		st, err := t.f.Stat()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("wal: %w", err)
		}
		end = st.Size()
	}
	size := int(max(end-t.off, 0))
	b := slices.Grow(t.buf[:0], size)[:size]
	t.buf = b
	if _, err := t.f.ReadAt(b, t.off); err != nil {
		return nil, 0, 0, fmt.Errorf("wal: %w", err)
	}
	start, more := 0, false // start: offset in b of the record at seq
	walked, err := walkFrames(b, func(data []byte, m bool) error {
		if t.skip > 0 {
			t.skip--
			start += headerLen + len(data)
			return nil
		}
		n, more = n+1, m
		if fn != nil {
			return fn(Record{Seq: t.seq + uint64(n-1), Data: data})
		}
		return nil
	})
	if err != nil && err != ErrCorrupt {
		return nil, 0, 0, err // fn's
	}
	// seq < next, so there is a record to return; the active segment's
	// bytes below the frontier hold exactly the records below next.
	if err != nil || walked != len(b) || more || n == 0 || (t.first == active && t.seq+uint64(n) != next) {
		return nil, 0, 0, fmt.Errorf("%w: frames from seq %d in segment %d are not the committed batches", ErrCorrupt, t.seq, t.first)
	}
	first = t.seq
	t.off, t.seq = end, t.seq+uint64(n)
	return b[start:], first, n, nil
}

func (t *tail) close() {
	if t.f != nil {
		//bioopera:allow droppederr the segment was only read
		t.f.Close()
		t.f = nil
	}
}

// frontier returns, read at one instant, the first sequence of the segment
// holding seq (0 when seq is below every segment), the first sequence of the
// active segment, that segment's committed byte size and the next sequence:
// the active segment's bytes below size hold exactly the records below next.
func (l *Log) frontier(seq uint64) (seg, active uint64, size int64, next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i := sort.Search(len(l.segs), func(i int) bool { return l.segs[i] > seq }); i > 0 {
		seg, active = l.segs[i-1], l.segs[len(l.segs)-1]
	}
	return seg, active, l.size, l.nextSeq
}

// notifyLocked wakes every WaitCommitted caller. Called with l.mu held
// whenever the committed frontier moves (append, reset) or the log closes.
func (l *Log) notifyLocked() {
	close(l.commitC)
	l.commitC = make(chan struct{})
}

// WaitCommitted blocks until the committed frontier exceeds after, the log
// closes, or stop is closed, and reports whether the caller should keep
// going (false on close or stop). AppendBatch advances the frontier only
// once a batch is on disk, so a shipper waiting here never sees an
// uncommitted frame.
func (l *Log) WaitCommitted(after uint64, stop <-chan struct{}) bool {
	for {
		l.mu.Lock()
		committed := l.nextSeq - 1
		ch := l.commitC
		closed := l.closed
		l.mu.Unlock()
		if closed || committed > after {
			return !closed
		}
		select {
		case <-ch:
		case <-stop:
			return false
		}
	}
}

// OldestSeq returns the sequence of the oldest record still on disk (the
// first record of the first segment), or the next append sequence when the
// log holds no segments. A follower whose cursor is below it must be
// bootstrapped from a snapshot instead of replayed.
func (l *Log) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return l.nextSeq
	}
	return l.segs[0]
}

// SetRetainFloor pins records with sequence ≥ seq on disk: TruncateBefore
// will not remove a segment containing them even after a snapshot
// supersedes them. Zero clears the pin. The shipper holds the floor at its
// slowest follower's cursor.
func (l *Log) SetRetainFloor(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retain = seq
}

// Reset discards every segment and positions the log so the next append
// receives seq. A standby installs a bootstrap snapshot covering records
// < seq and resets its log to continue from the primary's stream.
func (l *Log) Reset(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.file != nil {
		if err := l.file.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.file = nil
	}
	for _, first := range l.segs {
		if err := os.Remove(filepath.Join(l.dir, segName(first))); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.segs = nil
	l.size = 0
	l.nextSeq = seq
	l.notifyLocked()
	return nil
}

// TruncateBefore removes whole segments all of whose records have sequence
// < seq. It is called after a snapshot makes old records unnecessary. The
// segment containing seq (and the active tail) are always kept, as is any
// segment holding records at or above the retain floor.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.retain != 0 && l.retain < seq {
		seq = l.retain
	}
	var kept []uint64
	for i, first := range l.segs {
		// A segment is removable if the *next* segment starts at or
		// before seq (so every record here is < seq) and it is not
		// the active tail.
		removable := i+1 < len(l.segs) && l.segs[i+1] <= seq
		if removable {
			if err := os.Remove(filepath.Join(l.dir, segName(first))); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			continue
		}
		kept = append(kept, first)
	}
	l.segs = kept
	return nil
}

// Segments returns the starting sequence numbers of the live segment files.
func (l *Log) Segments() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]uint64(nil), l.segs...)
}

// Close syncs and closes the log. The log must not be used afterwards.
// WaitCommitted callers are woken and told to stop.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		l.notifyLocked()
	}
	if l.file == nil {
		return nil
	}
	if err := l.file.Sync(); err != nil {
		//bioopera:allow droppederr the sync failure is returned; closing the doomed file is best-effort
		l.file.Close()
		return fmt.Errorf("wal: %w", err)
	}
	err := l.file.Close()
	l.file = nil
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
