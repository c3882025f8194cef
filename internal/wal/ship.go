// Log shipping: a Shipper streams committed WAL batches over TCP to one
// or more Followers, which replay them into their own log. This is the
// wire layer of the hot-standby story — the paper leaned on a replicated
// DBMS for durable process state; we ship our own WAL instead.
//
// Each message is an envelope built with internal/codec — the codec record
// header (magic, version, kind), a uvarint seq and a uvarint payload length
// — followed by the payload:
//
//	sync      follower → shipper  seq = first sequence wanted, payload = uvarint protocol version
//	snapshot  shipper → follower  seq = first sequence NOT covered, payload = opaque image
//	frames    shipper → follower  seq = first record's sequence, payload = whole batches' frames
//	error     shipper → follower  payload = why the shipper refused
//
// A frames payload is the log's own on-disk bytes (len|crc|data), read by
// the session's tail cursor from where the last round stopped up to the
// committed frontier, so each committed byte is read and sent once. The
// follower re-verifies every checksum and splits the payload into batches
// on the continuation flag, so it re-appends the primary's commit units
// verbatim and a crash on either side rolls back to the same batch
// boundary. A follower whose cursor has fallen behind the oldest retained
// segment is bootstrapped with a snapshot; otherwise the shipper pins the
// retention floor (SetRetainFloor) at its slowest follower's cursor so
// snapshots cannot truncate records a standby still needs.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"bioopera/internal/codec"
)

// shipVersion is the protocol version the sync hello carries; a shipper
// refuses any other rather than misparse the stream. Message kinds share the
// codec kind namespace with core's persist records (1–4) and the store's
// WAL records (16–18).
const (
	shipVersion       = 1
	kindSync     byte = 32
	kindFrames   byte = 33
	kindSnapshot byte = 34
	kindError    byte = 35
)

// writeMsg writes one message: the envelope from e, then the payload, in
// one vectored write.
func writeMsg(w io.Writer, e *codec.Encoder, kind byte, seq uint64, payload []byte) error {
	e.Reset()
	e.Begin(kind)
	e.Uvarint(seq)
	e.Uvarint(uint64(len(payload)))
	bufs := net.Buffers{e.Buf, payload}
	_, err := bufs.WriteTo(w)
	return err
}

// readMsg reads one message. The payload is freshly allocated and never
// reused: records decoded from it may alias it.
func readMsg(r *bufio.Reader) (kind byte, seq uint64, payload []byte, err error) {
	var hdr [3]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	if _, kind, err = codec.NewDecoder(hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	var n uint64
	if seq, err = binary.ReadUvarint(r); err == nil {
		n, err = binary.ReadUvarint(r)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	if n <= 1<<20 {
		payload = make([]byte, n)
		_, err = io.ReadFull(r, payload)
		return kind, seq, payload, err
	}
	// Read a large length as the bytes arrive: a corrupt one must not allocate.
	payload, err = io.ReadAll(io.LimitReader(r, int64(min(n, 1<<62))))
	if err == nil && uint64(len(payload)) != n {
		err = io.ErrUnexpectedEOF
	}
	return kind, seq, payload, err
}

// ShipperOptions configure a Shipper.
type ShipperOptions struct {
	// Log is the log to ship from. Required.
	Log *Log
	// Snapshot produces a bootstrap image for followers whose cursor has
	// fallen behind the oldest retained record: the opaque snapshot bytes
	// plus the first WAL sequence NOT covered by them. Nil means lagging
	// followers are refused instead of bootstrapped.
	Snapshot func() (seq uint64, data []byte, err error)
	// Logf receives protocol diagnostics. May be nil.
	Logf func(format string, args ...any)
}

// Shipper serves the primary side of log shipping. It is safe for
// concurrent use alongside appends and truncation on the same Log.
type Shipper struct {
	ln   net.Listener
	opts ShipperOptions
	stop chan struct{}

	mu      sync.Mutex
	cursors map[net.Conn]uint64 // next sequence each follower needs
	floor   uint64              // the slowest follower's cursor (0: none)
	closed  bool
	wg      sync.WaitGroup
}

// NewShipper listens on addr and serves the log to connecting followers.
func NewShipper(addr string, opts ShipperOptions) (*Shipper, error) {
	if opts.Log == nil {
		return nil, fmt.Errorf("wal: ShipperOptions needs a Log")
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wal: ship listen: %w", err)
	}
	s := &Shipper{
		ln:      ln,
		opts:    opts,
		stop:    make(chan struct{}),
		cursors: make(map[net.Conn]uint64),
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the bound listen address (handy with ":0").
func (s *Shipper) Addr() string { return s.ln.Addr().String() }

// Followers reports how many followers are currently connected.
func (s *Shipper) Followers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cursors)
}

// Lag reports how far behind the slowest connected follower is: the
// committed records it has yet to be sent (0 with no followers).
func (s *Shipper) Lag() uint64 {
	next := s.opts.Log.NextSeq()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.floor == 0 || s.floor > next {
		return 0
	}
	return next - s.floor
}

func (s *Shipper) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			//bioopera:allow droppederr shutdown race: the refused connection's close error has no one to tell
			conn.Close()
			return
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

// setCursor records a follower's progress (0: it left) and re-pins the
// retention floor at the minimum across followers, so TruncateBefore keeps
// what the slowest standby still needs.
func (s *Shipper) setCursor(conn net.Conn, cursor uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cursor == 0 {
		delete(s.cursors, conn)
	} else {
		s.cursors[conn] = cursor
	}
	s.floor = 0
	for _, c := range s.cursors {
		if s.floor == 0 || c < s.floor {
			s.floor = c
		}
	}
	s.opts.Log.SetRetainFloor(s.floor) // 0 with no followers: unconstrained
}

// serve streams the log to one follower until it disconnects or the
// shipper closes.
func (s *Shipper) serve(conn net.Conn) {
	defer s.wg.Done()
	t := &tail{l: s.opts.Log}
	defer func() {
		//bioopera:allow droppederr the connection is being abandoned either way; its close error is diagnostic at best
		conn.Close()
		t.close()
		s.setCursor(conn, 0)
	}()
	var enc codec.Encoder // the session's envelope encoder
	refuse := func(reason string) {
		//bioopera:allow droppederr best-effort notice before hanging up; the follower sees the drop either way
		writeMsg(conn, &enc, kindError, 0, []byte(reason))
	}
	kind, from, hello, err := readMsg(bufio.NewReader(conn))
	if v, _ := binary.Uvarint(hello); err != nil || kind != kindSync || v != shipVersion {
		reason := fmt.Sprintf("bad sync hello: kind %d, protocol version %d (want %d): %v", kind, v, shipVersion, err)
		s.opts.Logf("wal: ship %s: %s", conn.RemoteAddr(), reason)
		refuse(reason)
		return
	}
	t.seq = max(from, 1)
	// Register before the first read so the retention floor protects the
	// cursor from a concurrent truncation.
	s.setCursor(conn, t.seq)
	s.opts.Logf("wal: ship %s: follower syncing from %d", conn.RemoteAddr(), t.seq)
	for {
		if !s.opts.Log.WaitCommitted(t.seq-1, s.stop) {
			return
		}
		if oldest := s.opts.Log.OldestSeq(); t.seq < oldest {
			// The records the follower needs are gone — bootstrap it.
			if s.opts.Snapshot == nil {
				refuse(fmt.Sprintf("records from %d truncated (oldest %d) and no snapshot source", t.seq, oldest))
				return
			}
			seq, data, err := s.opts.Snapshot()
			if err != nil {
				s.opts.Logf("wal: ship %s: snapshot: %v", conn.RemoteAddr(), err)
				refuse(err.Error())
				return
			}
			if err := writeMsg(conn, &enc, kindSnapshot, seq, data); err != nil {
				return
			}
			t.close() // reposition at the snapshot's sequence
			t.seq = seq
			s.setCursor(conn, t.seq)
			s.opts.Logf("wal: ship %s: bootstrapped to %d (%d snapshot bytes)", conn.RemoteAddr(), seq, len(data))
			continue
		}
		frames, first, n, err := t.next(nil)
		if err != nil {
			s.opts.Logf("wal: ship %s: %v", conn.RemoteAddr(), err)
			return
		}
		if n == 0 {
			continue
		}
		if err := writeMsg(conn, &enc, kindFrames, first, frames); err != nil {
			return
		}
		s.setCursor(conn, t.seq)
	}
}

// Close stops serving: the listener closes, follower connections drop, and
// the retention floor is released.
func (s *Shipper) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.cursors))
	for c := range s.cursors {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.stop)
	err := s.ln.Close()
	for _, c := range conns {
		//bioopera:allow droppederr shutdown: each follower connection is being discarded; the listener error is the one worth returning
		c.Close()
	}
	s.wg.Wait()
	s.opts.Log.SetRetainFloor(0)
	if err != nil {
		return fmt.Errorf("wal: ship close: %w", err)
	}
	return nil
}

// FollowerOptions configure a Follower.
type FollowerOptions struct {
	// From is the first sequence this follower needs (its own log's
	// NextSeq). Zero means from the beginning.
	From uint64
	// ApplyBatch ingests one shipped batch: first is the sequence of
	// records[0]. Required. An error stops Run. The records alias a
	// buffer the follower never reuses, so they may be kept.
	ApplyBatch func(first uint64, records [][]byte) error
	// ApplySnapshot installs a bootstrap image covering sequences < seq.
	// Required if the primary may have truncated past From.
	ApplySnapshot func(seq uint64, data []byte) error
	// Logf receives protocol diagnostics. May be nil.
	Logf func(format string, args ...any)
}

// Follower is the standby side of log shipping: it dials a Shipper and
// applies what arrives.
type Follower struct {
	conn net.Conn
	opts FollowerOptions

	mu     sync.Mutex
	closed bool
}

// DialFollower connects to a Shipper at addr and requests the stream. Call
// Run to start applying it.
func DialFollower(addr string, opts FollowerOptions) (*Follower, error) {
	if opts.ApplyBatch == nil {
		return nil, fmt.Errorf("wal: FollowerOptions needs ApplyBatch")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wal: follow dial: %w", err)
	}
	if err := writeMsg(conn, new(codec.Encoder), kindSync, opts.From, binary.AppendUvarint(nil, shipVersion)); err != nil {
		//bioopera:allow droppederr the handshake failure is returned; closing the dead connection is best-effort
		conn.Close()
		return nil, fmt.Errorf("wal: follow sync: %w", err)
	}
	return &Follower{conn: conn, opts: opts}, nil
}

// Run applies the stream until the connection drops (nil after a local
// Close, the transport error after a primary failure — the standby's cue
// to promote) or an apply callback fails.
func (f *Follower) Run() error {
	r := bufio.NewReaderSize(f.conn, 64<<10)
	for {
		kind, seq, payload, err := readMsg(r)
		if err != nil {
			f.mu.Lock()
			closed := f.closed
			f.mu.Unlock()
			if closed {
				return nil
			}
			if err == io.EOF {
				return fmt.Errorf("wal: follow: primary closed the stream")
			}
			return fmt.Errorf("wal: follow: %w", err)
		}
		if err := f.handle(kind, seq, payload); err != nil {
			return err
		}
	}
}

// handle applies one message from the shipper. A frames payload is
// verified whole before any of its batches is applied, so a corrupt frame
// applies nothing.
func (f *Follower) handle(kind byte, seq uint64, payload []byte) error {
	switch kind {
	case kindFrames:
		recs, ends := [][]byte(nil), []int{0} // batch i is recs[ends[i]:ends[i+1]]
		walked, err := walkFrames(payload, func(data []byte, more bool) error {
			if recs = append(recs, data); !more {
				ends = append(ends, len(recs))
			}
			return nil
		})
		if err != nil || walked != len(payload) || ends[len(ends)-1] != len(recs) {
			return fmt.Errorf("wal: follow: %w: shipped frames at %d are not whole batches", ErrCorrupt, seq)
		}
		for i := 1; i < len(ends); i++ {
			lo := ends[i-1]
			if err := f.opts.ApplyBatch(seq+uint64(lo), recs[lo:ends[i]]); err != nil {
				return fmt.Errorf("wal: follow apply %d: %w", seq+uint64(lo), err)
			}
		}
		return nil
	case kindSnapshot:
		if f.opts.ApplySnapshot == nil {
			return fmt.Errorf("wal: follow: unexpected snapshot (no ApplySnapshot)")
		}
		if err := f.opts.ApplySnapshot(seq, payload); err != nil {
			return fmt.Errorf("wal: follow install snapshot %d: %w", seq, err)
		}
		return nil
	case kindError:
		return fmt.Errorf("wal: follow: primary refused: %s", payload)
	}
	return fmt.Errorf("wal: follow: unknown message kind %d", kind)
}

// Close drops the connection; a concurrent Run returns nil.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	return f.conn.Close()
}
