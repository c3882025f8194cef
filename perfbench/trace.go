package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/ocr"
	"bioopera/internal/sched"
	"bioopera/internal/store"
)

// span is one timed call across a layer boundary, recorded from outside
// the layer. Events from the engine's OnEvent hook are zero-length spans.
type span struct {
	name       string
	inst       string // instance the call served ("" = none)
	task, node string // programs and task events only
	start, end int64  // ns since the tracer's epoch
	parent     int    // index of the innermost enclosing span, -1 for roots
}

// tracer keeps spans in memory; they are analysed and written out after
// the traced pass. A nil *tracer records nothing, so untraced passes run
// the same workload code without wrappers.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// Boundary counters: bytes handed to the store (the codec's output),
	// and calls per boundary.
	storeBytes atomic.Int64
	batches    atomic.Int64
	events     atomic.Int64
	picks      atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// now, add and addSpan are no-ops on a nil tracer, so workload code
// calls them unconditionally.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a span that started at start and ends now.
func (t *tracer) add(name, inst string, start int64) {
	if t == nil {
		return
	}
	t.addSpan(span{name: name, inst: inst, start: start, end: t.now()})
}

func (t *tracer) addSpan(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset discards what was recorded so far, so warm-up work is not
// analysed.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.storeBytes.Store(0)
	t.batches.Store(0)
	t.events.Store(0)
	t.picks.Store(0)
}

// finish assigns each span's parent — the innermost span that encloses
// it in time and serves the same instance, or an instance-less span such
// as a recovery — and returns the spans sorted by start.
func (t *tracer) finish() []span {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	stacks := make(map[string][]int) // instance → spans still open
	var global []int                 // instance-less spans still open
	// prune drops spans that ended before at; enclosing finds the
	// innermost remaining span that also outlasts s (concurrent siblings,
	// such as the runs of one fan-out, overlap without nesting).
	prune := func(stack []int, at int64) []int {
		kept := stack[:0]
		for _, k := range stack {
			if spans[k].end >= at {
				kept = append(kept, k)
			}
		}
		return kept
	}
	enclosing := func(stack []int, s *span) int {
		for k := len(stack) - 1; k >= 0; k-- {
			if spans[stack[k]].end >= s.end {
				return stack[k]
			}
		}
		return -1
	}
	for i := range spans {
		s := &spans[i]
		global = prune(global, s.start)
		s.parent = enclosing(global, s)
		if s.inst == "" {
			global = append(global, i)
			continue
		}
		st := prune(stacks[s.inst], s.start)
		if p := enclosing(st, s); p >= 0 && (s.parent < 0 || spans[p].start >= spans[s.parent].start) {
			s.parent = p
		}
		stacks[s.inst] = append(st, i)
	}
	return spans
}

// writeSpans writes the spans as tab-separated lines: index, parent,
// name, instance, task, node, start ns, end ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "idx\tparent\tname\tinstance\ttask\tnode\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%s\t%s\t%d\t%d\n", i, s.parent, s.name, s.inst, s.task, s.node, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// instOfKey extracts the instance ID from an instance-space key such as
// "inst/<id>", "task/<id>/…" or "scoped/<id>/…".
func instOfKey(key string) string {
	i := strings.IndexByte(key, '/')
	if i < 0 {
		return ""
	}
	rest := key[i+1:]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

var instanceField = []byte(`"instance":"`)

// instOfEvent extracts the instance ID from a journal record.
func instOfEvent(data []byte) string {
	i := bytes.Index(data, instanceField)
	if i < 0 {
		return ""
	}
	rest := data[i+len(instanceField):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return ""
}

// traceStore wraps a store.Store, recording a span per call and the
// bytes written. Use wrapStore, which also forwards the optional
// interfaces the engine type-asserts.
type traceStore struct {
	store.Store
	tr *tracer
}

func (s *traceStore) Put(space store.Space, key string, value []byte) error {
	t0 := s.tr.now()
	err := s.Store.Put(space, key, value)
	s.tr.storeBytes.Add(int64(len(value)))
	s.tr.add("store.put", instOfKey(key), t0)
	return err
}

func (s *traceStore) Batch(ops []store.Op) error {
	t0 := s.tr.now()
	err := s.Store.Batch(ops)
	var n int64
	inst := ""
	for _, op := range ops {
		n += int64(len(op.Value))
		if inst == "" && op.Space == store.Instance {
			inst = instOfKey(op.Key)
		}
	}
	s.tr.storeBytes.Add(n)
	s.tr.batches.Add(1)
	s.tr.add("store.batch", inst, t0)
	return err
}

func (s *traceStore) Get(space store.Space, key string) ([]byte, bool, error) {
	t0 := s.tr.now()
	v, ok, err := s.Store.Get(space, key)
	s.tr.add("store.get", instOfKey(key), t0)
	return v, ok, err
}

func (s *traceStore) Delete(space store.Space, key string) error {
	t0 := s.tr.now()
	err := s.Store.Delete(space, key)
	s.tr.add("store.delete", instOfKey(key), t0)
	return err
}

func (s *traceStore) List(space store.Space) ([]store.KV, error) {
	t0 := s.tr.now()
	kvs, err := s.Store.List(space)
	s.tr.add("store.list", "", t0)
	return kvs, err
}

func (s *traceStore) AppendEvent(data []byte) (uint64, error) {
	t0 := s.tr.now()
	seq, err := s.Store.AppendEvent(data)
	s.tr.storeBytes.Add(int64(len(data)))
	s.tr.events.Add(1)
	s.tr.add("store.append_event", instOfEvent(data), t0)
	return seq, err
}

func (s *traceStore) Events(from uint64, fn func(store.Event) error) error {
	t0 := s.tr.now()
	err := s.Store.Events(from, fn)
	s.tr.add("store.events", "", t0)
	return err
}

// The optional store interfaces the engine type-asserts
// (core.Snapshotter, and the snapshot-extra setter behind the proc
// manifest). A wrapper that hid them would make the traced run take
// different paths than the untraced one.
type snapshotter interface{ Snapshot() error }

type extraSetter interface {
	SetSnapshotExtra(key string, value []byte)
}

type snapPart struct {
	s  snapshotter
	tr *tracer
}

func (p snapPart) Snapshot() error {
	t0 := p.tr.now()
	err := p.s.Snapshot()
	p.tr.add("store.snapshot", "", t0)
	return err
}

type extraPart struct{ s extraSetter }

func (p extraPart) SetSnapshotExtra(key string, value []byte) { p.s.SetSnapshotExtra(key, value) }

// wrapStore returns st traced by tr, implementing exactly the optional
// interfaces st implements. A nil tracer returns st itself.
func wrapStore(st store.Store, tr *tracer) store.Store {
	if tr == nil {
		return st
	}
	ts := &traceStore{Store: st, tr: tr}
	snap, isSnap := st.(snapshotter)
	extra, isExtra := st.(extraSetter)
	switch {
	case isSnap && isExtra:
		return struct {
			*traceStore
			snapPart
			extraPart
		}{ts, snapPart{snap, tr}, extraPart{extra}}
	case isSnap:
		return struct {
			*traceStore
			snapPart
		}{ts, snapPart{snap, tr}}
	case isExtra:
		return struct {
			*traceStore
			extraPart
		}{ts, extraPart{extra}}
	}
	return ts
}

// tracePolicy wraps the placement policy.
type tracePolicy struct {
	sched.Policy
	tr *tracer
}

func (p tracePolicy) Pick(job sched.Job, nodes []cluster.NodeView) (string, bool) {
	t0 := p.tr.now()
	node, ok := p.Policy.Pick(job, nodes)
	p.tr.picks.Add(1)
	inst := job.ID
	if i := strings.IndexByte(inst, '|'); i >= 0 {
		inst = inst[:i]
	}
	p.tr.add("sched.pick", inst, t0)
	return node, ok
}

// policy returns the engine's default placement policy, traced by tr.
func policy(tr *tracer) sched.Policy {
	var p sched.Policy = sched.LeastLoaded{}
	if tr != nil {
		p = tracePolicy{Policy: p, tr: tr}
	}
	return p
}

// program wraps a library program so each run records a span.
func program(tr *tracer, name string, run core.ProgramFunc) core.Program {
	if tr == nil {
		return core.Program{Name: name, Run: run}
	}
	return core.Program{Name: name, Run: func(ctx core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		t0 := tr.now()
		out, err := run(ctx, args)
		tr.addSpan(span{name: "program.run", inst: ctx.Instance, task: ctx.Task, node: ctx.Node, start: t0, end: tr.now()})
		return out, err
	}}
}

// onEvent is the engine's OnEvent hook: it records the task hand-off
// events the per-layer intervals are measured against. It runs under the
// instance's shard lock, so it only appends.
func onEvent(tr *tracer) func(core.Event) {
	if tr == nil {
		return nil
	}
	return func(ev core.Event) {
		if ev.Kind != core.EvTaskDispatched && ev.Kind != core.EvTaskEnded {
			return
		}
		at := tr.now()
		tr.addSpan(span{name: "event." + string(ev.Kind), inst: ev.Instance, task: ev.Task, node: ev.Node, start: at, end: at})
	}
}
