// Package store implements the BioOpera database.
//
// The paper's central dependability argument is that *everything* — process
// templates, the execution state of running instances, the cluster
// configuration, and the full history of past executions — lives in a
// persistent store, so that the engine can resume month-long computations
// after any failure. This package provides that store as four typed key →
// value "spaces" (§3.2 of the paper):
//
//	Template      processes as defined by the user
//	Instance      processes currently executing
//	Configuration hardware/software description of the cluster
//	History       records of completed processes and lineage metadata
//
// plus an append-only event journal used by monitoring and the lifecycle
// figures.
//
// Two implementations are provided: Disk (WAL + snapshots, crash safe) and
// Mem (for simulations and tests). Both satisfy Store.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/obs"
	"bioopera/internal/wal"
)

// Space identifies one of the four BioOpera data spaces.
type Space uint8

// The four spaces of §3.2.
const (
	Template Space = iota
	Instance
	Configuration
	History
	numSpaces
)

// String returns the space name used in logs and errors.
func (s Space) String() string {
	switch s {
	case Template:
		return "template"
	case Instance:
		return "instance"
	case Configuration:
		return "configuration"
	case History:
		return "history"
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// KV is a key/value pair returned by List.
type KV struct {
	Key   string
	Value []byte
}

// Event is one entry of the append-only journal.
type Event struct {
	Seq  uint64
	Data []byte
}

// Op is one mutation inside a Batch: a put, or a delete when Delete is
// set (Value is then ignored).
type Op struct {
	Space  Space
	Key    string
	Value  []byte
	Delete bool
}

// Store is the interface both backends implement.
type Store interface {
	// Put stores value under key in the given space, replacing any
	// previous value.
	Put(space Space, key string, value []byte) error
	// Batch applies a set of puts and deletes atomically: after a crash
	// either every op is visible or none is. Ops may span spaces and are
	// applied in order (later ops win on key collisions). An empty batch
	// is a no-op.
	Batch(ops []Op) error
	// Get returns the value under key, and whether it exists.
	Get(space Space, key string) ([]byte, bool, error)
	// Delete removes key from the space. Deleting a missing key is not
	// an error.
	Delete(space Space, key string) error
	// List returns all pairs in the space, sorted by key.
	List(space Space) ([]KV, error)
	// AppendEvent adds a record to the journal and returns its sequence.
	AppendEvent(data []byte) (uint64, error)
	// Events calls fn for each journal record with sequence ≥ from.
	Events(from uint64, fn func(Event) error) error
	// Close releases resources. Disk stores flush first.
	Close() error
}

// state is the in-memory image shared by both backends.
type state struct {
	spaces   [numSpaces]map[string][]byte
	events   []Event
	eventSeq uint64
}

func newState() *state {
	var st state
	for i := range st.spaces {
		st.spaces[i] = make(map[string][]byte)
	}
	return &st
}

func (st *state) put(space Space, key string, value []byte) {
	st.spaces[space][key] = append([]byte(nil), value...)
}

func (st *state) get(space Space, key string) ([]byte, bool) {
	v, ok := st.spaces[space][key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

func (st *state) del(space Space, key string) { delete(st.spaces[space], key) }

func (st *state) list(space Space) []KV {
	m := st.spaces[space]
	kvs := make([]KV, 0, len(m))
	for k, v := range m {
		kvs = append(kvs, KV{Key: k, Value: append([]byte(nil), v...)})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
	return kvs
}

func (st *state) appendEvent(data []byte) uint64 {
	st.eventSeq++
	st.events = append(st.events, Event{Seq: st.eventSeq, Data: append([]byte(nil), data...)})
	return st.eventSeq
}

func checkSpace(space Space) error {
	if space >= numSpaces {
		return fmt.Errorf("store: invalid space %d", space)
	}
	return nil
}

// Mem is a purely in-memory Store. It is safe for concurrent use.
type Mem struct {
	mu     sync.RWMutex
	st     *state
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{st: newState()} }

// Put implements Store.
func (m *Mem) Put(space Space, key string, value []byte) error {
	if err := checkSpace(space); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.st.put(space, key, value)
	return nil
}

// Batch implements Store. Mem is never torn, so atomicity reduces to
// validating every op before applying any.
func (m *Mem) Batch(ops []Op) error {
	for _, op := range ops {
		if err := checkSpace(op.Space); err != nil {
			return err
		}
	}
	if len(ops) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, op := range ops {
		if op.Delete {
			m.st.del(op.Space, op.Key)
		} else {
			m.st.put(op.Space, op.Key, op.Value)
		}
	}
	return nil
}

// Get implements Store.
func (m *Mem) Get(space Space, key string) ([]byte, bool, error) {
	if err := checkSpace(space); err != nil {
		return nil, false, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	v, ok := m.st.get(space, key)
	return v, ok, nil
}

// Delete implements Store.
func (m *Mem) Delete(space Space, key string) error {
	if err := checkSpace(space); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.st.del(space, key)
	return nil
}

// List implements Store.
func (m *Mem) List(space Space) ([]KV, error) {
	if err := checkSpace(space); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	return m.st.list(space), nil
}

// AppendEvent implements Store.
func (m *Mem) AppendEvent(data []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	return m.st.appendEvent(data), nil
}

// Events implements Store.
func (m *Mem) Events(from uint64, fn func(Event) error) error {
	m.mu.RLock()
	evs := m.st.events
	closed := m.closed
	m.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	for _, e := range evs {
		if e.Seq < from {
			continue
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// walRecord is the frame appended to the WAL for each mutation. Op is the
// record's codec kind.
type walRecord struct {
	Op    byte // walKindPut, walKindDel or walKindEvent
	Space Space
	Key   string
	Value []byte
}

// Binary WAL record kinds — a range disjoint from the core persist-record
// kinds, so a record misfiled across decode contexts fails loudly instead
// of misparsing.
const (
	walKindPut   byte = 16
	walKindDel   byte = 17
	walKindEvent byte = 18
)

// encodeWALRecord appends one record to the encoder. Binary encoding is
// total: unlike json.Marshal it cannot fail, which removes an error path
// from every mutation.
func encodeWALRecord(e *codec.Encoder, rec walRecord) {
	e.Begin(rec.Op)
	e.Uvarint(uint64(rec.Space))
	e.String(rec.Key)
	e.Bytes(rec.Value)
	e.End()
}

// decodeWALRecord reads one binary WAL frame; a frame of an earlier,
// JSON-writing engine fails with codec.ErrLegacy. The decoded Value
// aliases data — apply copies before retaining.
func decodeWALRecord(data []byte) (walRecord, error) {
	d, kind, err := codec.NewDecoder(data)
	if err != nil {
		return walRecord{}, err
	}
	if kind < walKindPut || kind > walKindEvent {
		return walRecord{}, fmt.Errorf("%w: kind %d is not a wal record", codec.ErrCorrupt, kind)
	}
	rec := walRecord{Op: kind, Space: Space(d.Uvarint()), Key: d.String(), Value: d.Bytes()}
	return rec, d.Finish()
}

// snapshot is the JSON image written by Disk.Snapshot.
type snapshot struct {
	WALSeq   uint64                     `json:"walSeq"` // first WAL seq NOT in the snapshot
	EventSeq uint64                     `json:"eventSeq"`
	Spaces   [][]KV                     `json:"spaces"`
	Events   []Event                    `json:"events"`
	Extra    map[string]json.RawMessage `json:"extra,omitempty"`
}

const snapSuffix = ".snap"

// snapPath names the snapshot file covering WAL sequences below seq.
func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%020d%s", seq, snapSuffix))
}

// writeFileAtomic writes data via tmp and renames it into place, so a
// crash leaves either the old file or the new one, never a torn mix.
func writeFileAtomic(tmp, final string, data []byte) error {
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// Disk is a crash-safe Store backed by a WAL and periodic snapshots in a
// directory. It is safe for concurrent use.
//
// Mutations group-commit: while one caller's fsync is in flight, later
// callers enroll in a pending commit group whose leader flushes them all
// with a single wal.AppendBatch. Under concurrent checkpoint load the
// fsync cost is therefore shared across instances instead of paid per
// mutation — the disk half of the engine's sharded-execution story.
type Disk struct {
	mu     sync.RWMutex
	dir    string
	log    *wal.Log
	st     *state
	closed bool

	gmu     sync.Mutex // guards pending
	pending *commitGroup
	wmu     sync.Mutex // serializes group flushes (one leader at a time)

	// Group-commit accounting (written under mu in flushGroup).
	commitGroups   uint64
	groupedRecords uint64
	snapSeq        uint64 // WAL seq of the newest snapshot (0 = none)

	// extra is opaque manifest data (e.g. the engine's proc-refcount map)
	// included in every snapshot under its key. Guarded by mu.
	extra map[string][]byte

	groupSize   *obs.Histogram // records per flushed group (nil = no metrics)
	snapSeconds *obs.Histogram // Snapshot wall time (nil = no metrics)
	metrics     *obs.Registry  // DiskOptions.Metrics, for StartShipping's gauge
}

// commitReq is one caller's mutation set awaiting group commit. seq, when
// non-nil, receives the journal sequence assigned to an event record.
type commitReq struct {
	recs    []walRecord
	encoded [][]byte
	seq     *uint64
}

// commitGroup accumulates requests that will share one WAL batch + fsync.
type commitGroup struct {
	reqs    []*commitReq
	encoded [][]byte
	done    chan struct{}
	err     error
}

// DiskOptions configure a Disk store.
type DiskOptions struct {
	// NoSync disables per-record fsync (used by experiments).
	NoSync bool
	// SegmentSize overrides the WAL segment rotation threshold.
	SegmentSize int64
	// Metrics, when non-nil, registers the store's gauges (live records
	// per space, WAL segments, snapshot seq, commit groups — the Stats
	// fields, sampled at scrape time) and the commit-group-size and WAL
	// append/fsync latency histograms.
	Metrics *obs.Registry
}

// OpenDisk opens or creates a disk store in dir, recovering state from the
// latest snapshot plus the WAL tail. A WAL holding frames of an earlier,
// JSON-writing engine is refused with codec.ErrLegacy: `bioopera migrate`
// converts it.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	return openDisk(dir, opts, decodeWALRecord)
}

// openDisk is OpenDisk with the WAL frame decoder as a parameter, so the
// offline migration replays through the same code.
func openDisk(dir string, opts DiskOptions, decode func([]byte) (walRecord, error)) (*Disk, error) {
	wopts := wal.Options{
		NoSync:      opts.NoSync,
		SegmentSize: opts.SegmentSize,
	}
	if opts.Metrics != nil {
		wopts.AppendLatency = opts.Metrics.Histogram("bioopera_wal_append_seconds",
			"Latency of wal.AppendBatch, fsync included.", nil)
		wopts.SyncLatency = opts.Metrics.Histogram("bioopera_wal_fsync_seconds",
			"Latency of the fsync inside wal.AppendBatch.", nil)
	}
	l, err := wal.Open(filepath.Join(dir, "wal"), wopts)
	if err != nil {
		return nil, err
	}
	d := &Disk{dir: dir, log: l, st: newState(), metrics: opts.Metrics}
	from, err := d.loadSnapshot()
	if err != nil {
		//bioopera:allow droppederr the snapshot load error is returned; closing the half-opened log is best-effort
		l.Close()
		return nil, err
	}
	err = l.Replay(from, func(r wal.Record) error {
		rec, err := decode(r.Data)
		if err != nil {
			return fmt.Errorf("store: %s: decoding wal record %d: %w", dir, r.Seq, err)
		}
		d.apply(rec)
		return nil
	})
	if err != nil {
		//bioopera:allow droppederr the replay error is returned; closing the half-opened log is best-effort
		l.Close()
		return nil, err
	}
	if opts.Metrics != nil {
		d.groupSize = opts.Metrics.Histogram("bioopera_store_commit_group_records",
			"Records per group-committed WAL batch.", obs.SizeBuckets)
		d.snapSeconds = opts.Metrics.Histogram("bioopera_store_snapshot_seconds",
			"Wall time of Disk.Snapshot: capture, marshal, write, WAL truncation.", nil)
		d.registerGauges(opts.Metrics)
	}
	return d, nil
}

// registerGauges exposes the Stats fields as scrape-time gauges — no cost
// on the commit path beyond the counters flushGroup already keeps.
func (d *Disk) registerGauges(reg *obs.Registry) {
	for sp := Space(0); sp < numSpaces; sp++ {
		space := sp
		reg.GaugeFuncWith("bioopera_store_records",
			"Live records per store space.", "space", space.String(),
			func() float64 { return float64(d.Stats().Records[space.String()]) })
	}
	reg.GaugeFunc("bioopera_store_events",
		"Journal records held in memory.",
		func() float64 { return float64(d.Stats().Events) })
	reg.GaugeFunc("bioopera_store_wal_segments",
		"Live WAL segment files.",
		func() float64 { return float64(len(d.log.Segments())) })
	reg.GaugeFunc("bioopera_store_wal_syncs",
		"Fsyncs issued by WAL appends since open.",
		func() float64 { return float64(d.log.Syncs()) })
	reg.GaugeFunc("bioopera_store_snapshot_seq",
		"WAL sequence of the newest snapshot (0 = none).",
		func() float64 { return float64(d.Stats().SnapshotSeq) })
	reg.GaugeFunc("bioopera_store_commit_groups",
		"Commit groups flushed since open.",
		func() float64 { return float64(d.Stats().CommitGroups) })
}

// loadSnapshot restores the newest valid snapshot, returning the WAL
// sequence to resume replay from.
func (d *Disk) loadSnapshot() (uint64, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 1, fmt.Errorf("store: %w", err)
	}
	var snaps []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, snapSuffix) || !strings.HasPrefix(name, "snap-") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), snapSuffix), 10, 64)
		if err == nil {
			snaps = append(snaps, n)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first
	for _, n := range snaps {
		path := filepath.Join(d.dir, fmt.Sprintf("snap-%020d%s", n, snapSuffix))
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			continue // partially written snapshot; fall back to older
		}
		for i, kvs := range snap.Spaces {
			if i >= int(numSpaces) {
				break
			}
			for _, kv := range kvs {
				d.st.spaces[i][kv.Key] = kv.Value
			}
		}
		d.st.events = snap.Events
		d.st.eventSeq = snap.EventSeq
		d.snapSeq = snap.WALSeq
		return snap.WALSeq, nil
	}
	return 1, nil
}

func (d *Disk) apply(rec walRecord) {
	switch rec.Op {
	case walKindPut:
		if rec.Space < numSpaces {
			d.st.put(rec.Space, rec.Key, rec.Value)
		}
	case walKindDel:
		if rec.Space < numSpaces {
			d.st.del(rec.Space, rec.Key)
		}
	case walKindEvent:
		d.st.appendEvent(rec.Value)
	}
}

// append logs one mutation through the group-commit path.
func (d *Disk) append(rec walRecord) error {
	enc := codec.Get()
	encodeWALRecord(enc, rec)
	err := d.commit(&commitReq{recs: []walRecord{rec}, encoded: [][]byte{enc.Span(0)}})
	codec.Put(enc)
	return err
}

// commit durably applies one request. The first caller to find no pending
// group opens one and becomes its leader; callers arriving while the
// previous group's fsync is still in flight enroll as followers and just
// wait. The leader closes enrollment, writes every enrolled request as one
// WAL batch (one fsync), applies them in order, and wakes the followers.
func (d *Disk) commit(req *commitReq) error {
	d.gmu.Lock()
	g := d.pending
	leader := g == nil
	if leader {
		g = &commitGroup{done: make(chan struct{})}
		d.pending = g
	}
	g.reqs = append(g.reqs, req)
	g.encoded = append(g.encoded, req.encoded...)
	d.gmu.Unlock()
	if !leader {
		//bioopera:allow blockingsend group-commit follower: the wait is bounded by one leader fsync (the leader always closes done), and the follower holds no locks here
		<-g.done
		return g.err
	}
	d.wmu.Lock() // wait out the previous group's flush; followers pile up meanwhile
	d.gmu.Lock()
	d.pending = nil // close enrollment: later arrivals form the next group
	d.gmu.Unlock()
	g.err = d.flushGroup(g)
	d.wmu.Unlock()
	close(g.done)
	return g.err
}

// flushGroup writes a closed group to the WAL and applies it to memory.
func (d *Disk) flushGroup(g *commitGroup) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if _, err := d.log.AppendBatch(g.encoded); err != nil {
		return err
	}
	d.commitGroups++
	d.groupedRecords += uint64(len(g.encoded))
	d.groupSize.Observe(float64(len(g.encoded)))
	for _, req := range g.reqs {
		for _, rec := range req.recs {
			d.apply(rec)
			if rec.Op == walKindEvent && req.seq != nil {
				*req.seq = d.st.eventSeq
			}
		}
	}
	return nil
}

// Put implements Store.
func (d *Disk) Put(space Space, key string, value []byte) error {
	if err := checkSpace(space); err != nil {
		return err
	}
	return d.append(walRecord{Op: walKindPut, Space: space, Key: key, Value: value})
}

// Batch implements Store: every op becomes one WAL record and the whole
// set is group-committed with a single fsync (wal.AppendBatch), so a crash
// mid-batch rolls back all of it on replay.
func (d *Disk) Batch(ops []Op) error {
	for _, op := range ops {
		if err := checkSpace(op.Space); err != nil {
			return err
		}
	}
	if len(ops) == 0 {
		return nil
	}
	recs := make([]walRecord, len(ops))
	encoded := make([][]byte, len(ops))
	enc := codec.Get()
	for i, op := range ops {
		rec := walRecord{Op: walKindPut, Space: op.Space, Key: op.Key, Value: op.Value}
		if op.Delete {
			rec.Op = walKindDel
			rec.Value = nil
		}
		recs[i] = rec
		encodeWALRecord(enc, rec)
	}
	// Spans are taken only after every record is encoded: appending can
	// relocate the encoder's buffer.
	for i := range encoded {
		encoded[i] = enc.Span(i)
	}
	err := d.commit(&commitReq{recs: recs, encoded: encoded})
	codec.Put(enc)
	return err
}

// Get implements Store.
func (d *Disk) Get(space Space, key string) ([]byte, bool, error) {
	if err := checkSpace(space); err != nil {
		return nil, false, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, false, ErrClosed
	}
	v, ok := d.st.get(space, key)
	return v, ok, nil
}

// Delete implements Store.
func (d *Disk) Delete(space Space, key string) error {
	if err := checkSpace(space); err != nil {
		return err
	}
	return d.append(walRecord{Op: walKindDel, Space: space, Key: key})
}

// List implements Store.
func (d *Disk) List(space Space) ([]KV, error) {
	if err := checkSpace(space); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, ErrClosed
	}
	return d.st.list(space), nil
}

// AppendEvent implements Store.
func (d *Disk) AppendEvent(data []byte) (uint64, error) {
	rec := walRecord{Op: walKindEvent, Value: data}
	enc := codec.Get()
	encodeWALRecord(enc, rec)
	var seq uint64
	req := &commitReq{recs: []walRecord{rec}, encoded: [][]byte{enc.Span(0)}, seq: &seq}
	err := d.commit(req)
	codec.Put(enc)
	if err != nil {
		return 0, err
	}
	return seq, nil
}

// Events implements Store. The journal is append-only and its entries are
// immutable once written, so the slice header captured under the lock can
// be iterated without copying the events — a history dump streams straight
// from the shared backing array instead of materializing a second copy.
func (d *Disk) Events(from uint64, fn func(Event) error) error {
	d.mu.RLock()
	evs := d.st.events
	closed := d.closed
	d.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	// Events are dense and sorted by Seq; skip straight to `from`.
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Seq >= from })
	for ; i < len(evs); i++ {
		if err := fn(evs[i]); err != nil {
			return err
		}
	}
	return nil
}

// WALSyncs reports how many fsyncs the underlying WAL has issued for
// appends — the group-commit metric benchmarks divide by record count.
func (d *Disk) WALSyncs() uint64 { return d.log.Syncs() }

// Stats is a point-in-time summary of a Disk store's shape: the numbers
// behind `bioopera history -stats` and the store gauges.
type Stats struct {
	// Records counts live records per space, keyed by Space.String().
	Records map[string]int
	// Events is the journal length held in memory; EventSeq the newest
	// journal sequence.
	Events   int
	EventSeq uint64
	// WALSegments / WALSyncs / WALNextSeq describe the write-ahead log.
	WALSegments int
	WALSyncs    uint64
	WALNextSeq  uint64
	// SnapshotSeq is the WAL sequence of the newest snapshot (0 = none).
	SnapshotSeq uint64
	// CommitGroups counts group commits since open; GroupedRecords the
	// WAL records they carried (their ratio is the mean group size).
	CommitGroups   uint64
	GroupedRecords uint64
}

// Stats returns a consistent snapshot of the store's statistics.
func (d *Disk) Stats() Stats {
	d.mu.RLock()
	s := Stats{
		Records:        make(map[string]int, numSpaces),
		Events:         len(d.st.events),
		EventSeq:       d.st.eventSeq,
		SnapshotSeq:    d.snapSeq,
		CommitGroups:   d.commitGroups,
		GroupedRecords: d.groupedRecords,
	}
	for sp := Space(0); sp < numSpaces; sp++ {
		s.Records[sp.String()] = len(d.st.spaces[sp])
	}
	d.mu.RUnlock()
	s.WALSegments = len(d.log.Segments())
	s.WALSyncs = d.log.Syncs()
	s.WALNextSeq = d.log.NextSeq()
	return s
}

// SetSnapshotExtra attaches opaque manifest data that every subsequent
// snapshot (and shipping bootstrap image) carries under key. The engine
// records its proc-refcount manifest here so a snapshot documents which
// content-addressed process texts were live when it was cut. A nil value
// removes the key.
func (d *Disk) SetSnapshotExtra(key string, value []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if value == nil {
		delete(d.extra, key)
		return
	}
	if d.extra == nil {
		d.extra = make(map[string][]byte)
	}
	d.extra[key] = append([]byte(nil), value...)
}

// captureSnapshot copies the full state into a snapshot image under mu.
func (d *Disk) captureSnapshot() (snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return snapshot{}, ErrClosed
	}
	snap := snapshot{
		WALSeq:   d.log.NextSeq(),
		EventSeq: d.st.eventSeq,
		Spaces:   make([][]KV, numSpaces),
		Events:   append([]Event(nil), d.st.events...),
	}
	for i := Space(0); i < numSpaces; i++ {
		snap.Spaces[i] = d.st.list(i)
	}
	if len(d.extra) > 0 {
		snap.Extra = make(map[string]json.RawMessage, len(d.extra))
		keys := make([]string, 0, len(d.extra))
		for k := range d.extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			snap.Extra[k] = json.RawMessage(append([]byte(nil), d.extra[k]...))
		}
	}
	return snap, nil
}

// Snapshot writes the full state to a snapshot file and garbage-collects
// WAL segments that precede it (the retention floor pinned by an attached
// shipper is honored: segments a standby still needs survive).
func (d *Disk) Snapshot() error {
	var start time.Time
	if d.snapSeconds != nil {
		//bioopera:allow walltime latency histogram observes real snapshot I/O time; it never feeds back into replayable state
		start = time.Now()
	}
	snap, err := d.captureSnapshot()
	if err != nil {
		return err
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	final := snapPath(d.dir, snap.WALSeq)
	if err := writeFileAtomic(final+".tmp", final, data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := d.log.TruncateBefore(snap.WALSeq); err != nil {
		return err
	}
	d.mu.Lock()
	d.snapSeq = snap.WALSeq
	d.mu.Unlock()
	// Remove superseded snapshots.
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, snapSuffix) || name == filepath.Base(final) {
			continue
		}
		os.Remove(filepath.Join(d.dir, name))
	}
	if d.snapSeconds != nil {
		//bioopera:allow walltime latency histogram observes real snapshot I/O time; it never feeds back into replayable state
		d.snapSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// Close flushes and closes the store.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.log.Close()
}
