// Replication: the Disk store's side of WAL log shipping. A primary
// serves its log through StartShipping; a Standby opens its own Disk in
// another directory, follows the primary's stream, and replays every
// shipped batch through its own WAL before applying it — so the standby
// is itself crash-safe at every point, and a promotion is nothing more
// than "stop following and hand the Disk to Engine.Recover".
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"bioopera/internal/wal"
)

// marshalSnapshot captures and encodes the current state for a shipping
// bootstrap: the image plus the first WAL sequence not covered by it.
func (d *Disk) marshalSnapshot() (uint64, []byte, error) {
	snap, err := d.captureSnapshot()
	if err != nil {
		return 0, nil, err
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return 0, nil, fmt.Errorf("store: %w", err)
	}
	return snap.WALSeq, data, nil
}

// StartShipping serves this store's WAL to followers on addr (":0" picks a
// free port). Followers that lag behind the oldest retained segment are
// bootstrapped with a full snapshot; connected followers pin the WAL
// retention floor so Snapshot cannot truncate records they still need.
// With DiskOptions.Metrics set, the slowest follower's lag is exported at
// scrape time as bioopera_wal_ship_lag_records.
func (d *Disk) StartShipping(addr string, logf func(string, ...any)) (*wal.Shipper, error) {
	s, err := wal.NewShipper(addr, wal.ShipperOptions{
		Log:      d.log,
		Snapshot: d.marshalSnapshot,
		Logf:     logf,
	})
	if err != nil {
		return nil, err
	}
	d.metrics.GaugeFunc("bioopera_wal_ship_lag_records",
		"Committed WAL records the slowest standby has yet to be sent.",
		func() float64 { return float64(s.Lag()) })
	return s, nil
}

// applyShipped ingests one batch-aligned group of records from the
// primary: append to our own WAL first (one fsync, same commit unit), then
// apply to memory — the exact discipline flushGroup uses for local writes.
func (d *Disk) applyShipped(first uint64, records [][]byte) error {
	recs := make([]walRecord, len(records))
	for i, data := range records {
		rec, err := decodeWALRecord(data)
		if err != nil {
			return fmt.Errorf("store: decoding shipped record %d: %w", first+uint64(i), err)
		}
		recs[i] = rec
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if next := d.log.NextSeq(); first != next {
		return fmt.Errorf("store: shipped batch starts at %d, want %d", first, next)
	}
	if _, err := d.log.AppendBatch(records); err != nil {
		return err
	}
	for _, rec := range recs {
		d.apply(rec)
	}
	return nil
}

// installSnapshot replaces the in-memory state with a bootstrap image and
// resets the WAL so the next shipped batch (sequence seq) appends cleanly.
// The image is also written as a snapshot file: a standby that crashes
// right after bootstrap recovers without re-fetching it.
func (d *Disk) installSnapshot(seq uint64, data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("store: decoding shipped snapshot: %w", err)
	}
	if snap.WALSeq != seq {
		return fmt.Errorf("store: shipped snapshot covers to %d, header says %d", snap.WALSeq, seq)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	st := newState()
	for i, kvs := range snap.Spaces {
		if i >= int(numSpaces) {
			break
		}
		for _, kv := range kvs {
			st.spaces[i][kv.Key] = kv.Value
		}
	}
	st.events = snap.Events
	st.eventSeq = snap.EventSeq
	if err := d.writeSnapFileLocked(seq, data); err != nil {
		return err
	}
	if err := d.log.Reset(seq); err != nil {
		return err
	}
	d.st = st
	d.snapSeq = seq
	return nil
}

// writeSnapFileLocked durably writes a snapshot image under its sequence
// name (tmp + rename, the same torn-write discipline Snapshot uses).
func (d *Disk) writeSnapFileLocked(seq uint64, data []byte) error {
	final := snapPath(d.dir, seq)
	tmp := final + ".tmp"
	if err := writeFileAtomic(tmp, final, data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Digest hashes the logical store contents — every space's sorted records,
// the event journal, and the journal sequence. Two stores that executed
// the same history digest identically even if their physical WAL segment
// boundaries differ, which is exactly the check a freshly promoted standby
// must pass against its failed primary.
func (d *Disk) Digest() (string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return "", ErrClosed
	}
	h := sha256.New()
	var lenBuf [8]byte
	writeChunk := func(b []byte) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:])
		h.Write(b)
	}
	for sp := Space(0); sp < numSpaces; sp++ {
		for _, kv := range d.st.list(sp) {
			writeChunk([]byte(kv.Key))
			writeChunk(kv.Value)
		}
	}
	for _, e := range d.st.events {
		binary.LittleEndian.PutUint64(lenBuf[:], e.Seq)
		h.Write(lenBuf[:])
		writeChunk(e.Data)
	}
	binary.LittleEndian.PutUint64(lenBuf[:], d.st.eventSeq)
	h.Write(lenBuf[:])
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Standby is a Disk store kept hot by following a primary's WAL stream.
// It is read-consistent at batch boundaries: Get/List on the embedded
// store observe exactly the prefixes of the primary's history.
type Standby struct {
	d *Disk
	f *wal.Follower
}

// OpenStandby opens (or re-opens — a standby resumes from its own WAL
// after a restart) the standby store in dir.
func OpenStandby(dir string, opts DiskOptions) (*Standby, error) {
	d, err := OpenDisk(dir, opts)
	if err != nil {
		return nil, err
	}
	return &Standby{d: d}, nil
}

// Store returns the embedded Disk. While following, treat it as read-only:
// local writes would diverge from the primary's stream.
func (s *Standby) Store() *Disk { return s.d }

// Follow connects to the primary's shipper at addr and replays its stream,
// blocking until the connection drops. A nil return means Close was
// called; any other return — typically the primary dying — is the
// caller's cue to promote.
func (s *Standby) Follow(addr string, logf func(string, ...any)) error {
	f, err := wal.DialFollower(addr, wal.FollowerOptions{
		From:          s.d.log.NextSeq(),
		ApplyBatch:    s.d.applyShipped,
		ApplySnapshot: s.d.installSnapshot,
		Logf:          logf,
	})
	if err != nil {
		return err
	}
	s.f = f
	return f.Run()
}

// Promote detaches from the primary and returns the store, ready for
// Engine.Recover. The Standby must not be used afterwards.
func (s *Standby) Promote() (*Disk, error) {
	if s.f != nil {
		if err := s.f.Close(); err != nil {
			return nil, err
		}
		s.f = nil
	}
	return s.d, nil
}

// Close stops following and closes the store.
func (s *Standby) Close() error {
	if s.f != nil {
		//bioopera:allow droppederr teardown: the store close below is the error that matters; the follower socket is being discarded
		s.f.Close()
		s.f = nil
	}
	return s.d.Close()
}
