package main

import (
	"testing"

	"bioopera/internal/core"
	"bioopera/internal/store"
)

// TestWrapStoreKeepsOptionalInterfaces checks that the traced store
// implements exactly the optional interfaces of the store it wraps, so
// the engine takes the same paths with and without tracing.
func TestWrapStoreKeepsOptionalInterfaces(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), store.DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	optional := map[string]func(store.Store) bool{
		"core.Snapshotter": func(s store.Store) bool { _, ok := s.(core.Snapshotter); return ok },
		"SetSnapshotExtra": func(s store.Store) bool { _, ok := s.(extraSetter); return ok },
	}
	for name, st := range map[string]store.Store{"mem": store.NewMem(), "disk": disk} {
		wrapped := wrapStore(st, newTracer())
		for iface, has := range optional {
			if has(st) != has(wrapped) {
				t.Errorf("%s store: implements %s = %v, wrapper = %v", name, iface, has(st), has(wrapped))
			}
		}
	}
	if !optional["core.Snapshotter"](disk) || !optional["SetSnapshotExtra"](disk) {
		t.Fatal("the disk store no longer implements the interfaces this test guards")
	}
}

// TestWrapStoreForwards checks that calls through the wrapper reach the
// wrapped store and are recorded with their instance.
func TestWrapStoreForwards(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), store.DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	tr := newTracer()
	st := wrapStore(disk, tr)
	if err := st.Batch([]store.Op{{Space: store.Instance, Key: "task/p0007/root/A", Value: []byte("abc")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendEvent([]byte(`{"at":1,"kind":"task-ended","instance":"p0007"}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.(core.Snapshotter).Snapshot(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := disk.Get(store.Instance, "task/p0007/root/A"); err != nil || !ok || string(v) != "abc" {
		t.Fatalf("wrapped Batch did not reach the store: %q %v %v", v, ok, err)
	}
	if disk.Stats().SnapshotSeq == 0 {
		t.Fatal("wrapped Snapshot did not reach the store")
	}
	got := map[string]string{}
	for _, s := range tr.finish() {
		got[s.name] = s.inst
	}
	want := map[string]string{"store.batch": "p0007", "store.append_event": "p0007", "store.snapshot": ""}
	for name, inst := range want {
		if g, ok := got[name]; !ok || g != inst {
			t.Errorf("span %s: instance %q (recorded %v), want %q", name, g, ok, inst)
		}
	}
	if n := tr.storeBytes.Load(); n < 3 {
		t.Errorf("store bytes = %d, want the batch and event bytes", n)
	}
}

// TestFinishAssignsParents checks parent assignment: the innermost
// enclosing span of the same instance, or an enclosing instance-less span.
func TestFinishAssignsParents(t *testing.T) {
	tr := newTracer()
	tr.addSpan(span{name: "instance", inst: "p1", start: 0, end: 100})
	tr.addSpan(span{name: "program.run", inst: "p1", start: 10, end: 20})
	tr.addSpan(span{name: "program.run", inst: "p1", start: 15, end: 30}) // overlaps, does not nest
	tr.addSpan(span{name: "store.batch", inst: "p1", start: 16, end: 18})
	tr.addSpan(span{name: "store.batch", inst: "p2", start: 16, end: 18})
	tr.addSpan(span{name: "core.recover", start: 200, end: 300})
	tr.addSpan(span{name: "store.list", start: 210, end: 220})
	spans := tr.finish()
	parent := func(name, inst string, start int64) string {
		for _, s := range spans {
			if s.name == name && s.inst == inst && s.start == start {
				if s.parent < 0 {
					return ""
				}
				return spans[s.parent].name + "@" + spans[s.parent].inst
			}
		}
		t.Fatalf("no span %s %s", name, inst)
		return ""
	}
	cases := []struct {
		name, inst string
		start      int64
		want       string
	}{
		{"instance", "p1", 0, ""},
		{"program.run", "p1", 10, "instance@p1"},
		{"program.run", "p1", 15, "instance@p1"},
		{"store.batch", "p1", 16, "program.run@p1"},
		{"store.batch", "p2", 16, ""},
		{"store.list", "", 210, "core.recover@"},
	}
	for _, c := range cases {
		if got := parent(c.name, c.inst, c.start); got != c.want {
			t.Errorf("%s %s: parent %q, want %q", c.name, c.inst, got, c.want)
		}
	}
}
