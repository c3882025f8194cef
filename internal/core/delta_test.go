package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// These tests cover the incremental-checkpoint layout: legacy whole-scope
// and mixed-layout stores (refused by recovery, then migrated and recovered
// byte-equivalent), torn mid-delta batches, checkpoint failure re-marking,
// and allocation guards on the persist hot path.

// legacyScopeDTO replicates the first engine generation's whole-scope
// record writer exactly (one scopeDTO per scope, tasks in Proc order), so
// tests can fabricate stores as the old engine would have written them.
func legacyScopeDTO(sc *scope) scopeDTO {
	dto := scopeDTO{
		ID:         sc.ID,
		IsRoot:     sc.Parent == nil,
		ParentTask: sc.ParentTask,
		ElemIndex:  sc.ElemIndex,
		ProcText:   sc.procText(),
		Whiteboard: sc.Whiteboard,
		Done:       sc.Done,
	}
	if sc.Parent != nil {
		dto.Parent = sc.Parent.ID
	}
	for _, t := range sc.Proc.Tasks {
		ts := sc.Tasks[t.Name]
		dto.Tasks = append(dto.Tasks, taskDTO{
			Name: ts.Name, Status: ts.Status, Attempts: ts.Attempts,
			Inputs: ts.Inputs, Outputs: ts.Outputs,
			Node: ts.Node, Job: ts.Job, AltOf: ts.AltOf,
			ReadyAt: ts.ReadyAt, StartedAt: ts.StartedAt, EndedAt: ts.EndedAt,
			CPUTime: ts.CPUTime, ChildWaiting: ts.ChildWaiting,
			Results: ts.Results, OverElems: ts.OverElems,
		})
	}
	return dto
}

// writeLegacyInstance stores an instance in the old layout: one inst/
// metadata record plus one whole-scope record per scope.
func writeLegacyInstance(t *testing.T, st store.Store, in *Instance) {
	writeLegacyRecords(t, st, store.Instance, in)
}

// writeLegacyRecords writes the old-layout records of in into space.
func writeLegacyRecords(t *testing.T, st store.Store, space store.Space, in *Instance) {
	t.Helper()
	meta, err := json.Marshal(buildInstanceDTO(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(space, metaKey(in.ID), meta); err != nil {
		t.Fatal(err)
	}
	for _, sc := range in.scopes {
		data, err := json.Marshal(legacyScopeDTO(sc))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(space, "scope/"+in.ID+"/"+nzScope(sc.ID), data); err != nil {
			t.Fatal(err)
		}
	}
}

// dumpInstance renders an instance's observable state as canonical JSON:
// metadata, then each scope (sorted by ID) with its whiteboard and tasks in
// Proc order, including the derived fields recovery recomputes. Two
// recoveries of the same execution state must dump byte-identically.
func dumpInstance(t *testing.T, in *Instance) string {
	t.Helper()
	type scopeDump struct {
		scopeDTO
		Tasks []taskDTO `json:"tasks"`
	}
	var scopes []scopeDump
	for _, sc := range in.scopes {
		d := legacyScopeDTO(sc)
		d.ProcText = sc.procText()
		scopes = append(scopes, scopeDump{scopeDTO: d, Tasks: d.Tasks})
	}
	sort.Slice(scopes, func(i, j int) bool { return scopes[i].ID < scopes[j].ID })
	out, err := json.MarshalIndent(struct {
		Meta   instanceDTO `json:"meta"`
		Scopes []scopeDump `json:"scopes"`
	}{buildInstanceDTO(in), scopes}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// quiesceSuspended runs a mid-flight parallel instance into a stable
// suspended state: kills delivered, every task Ready or terminal, nothing
// on the cluster.
func quiesceSuspended(t *testing.T, rt *SimRuntime, id string, at sim.Time) {
	t.Helper()
	rt.RunUntil(at)
	if err := rt.Engine.Suspend(id, false); err != nil {
		t.Fatal(err)
	}
	rt.RunUntil(at + sim.Time(time.Second)) // drain kill completions
	if rt.Engine.RunningJobs() != 0 {
		t.Fatal("jobs still running after suspend drain")
	}
}

// recoverRefusesLegacy recovers st in a fresh engine and checks that
// exactly the instances in legacy fail, each through OnError with
// codec.ErrLegacy, while the other `others` instances recover.
func recoverRefusesLegacy(t *testing.T, st store.Store, legacy []string, others int) {
	t.Helper()
	var errs []error
	rt := newRuntime(t, SimConfig{Store: st, Options: Options{OnError: func(err error) { errs = append(errs, err) }}})
	register(t, rt, parallelSrc)
	n, err := rt.Engine.Recover()
	if n != others || !errors.Is(err, codec.ErrLegacy) {
		t.Fatalf("recover before migrate = %d, %v; want %d recovered and codec.ErrLegacy", n, err, others)
	}
	if len(errs) != len(legacy) {
		t.Fatalf("OnError got %d errors, want %d: %v", len(errs), len(legacy), errs)
	}
	for i, id := range legacy {
		if !errors.Is(errs[i], codec.ErrLegacy) || !strings.Contains(errs[i].Error(), id) {
			t.Fatalf("OnError[%d] = %v, want codec.ErrLegacy for %s", i, errs[i], id)
		}
	}
	rt.Engine.Crash()
}

// migrateStore runs core.Migrate over st, checks that afterwards every
// record but the raw proc/ texts is binary and no scope/ record is left,
// checks that a second run converts nothing, and returns the first run's
// counts.
func migrateStore(t *testing.T, st store.Store) map[string]int {
	t.Helper()
	counts, err := Migrate(st)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	for _, sp := range []store.Space{store.Instance, store.History} {
		kvs, err := st.List(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range kvs {
			switch {
			case strings.HasPrefix(kv.Key, "scope/"):
				t.Fatalf("whole-scope record %s survived migrate", kv.Key)
			case strings.HasPrefix(kv.Key, "proc/"):
				if len(kv.Value) > 0 && kv.Value[0] == codec.Magic {
					t.Fatalf("proc record %s is not raw text", kv.Key)
				}
			case len(kv.Value) == 0 || kv.Value[0] != codec.Magic:
				t.Fatalf("record %s is not binary after migrate: %s", kv.Key, kv.Value)
			}
		}
	}
	again, err := Migrate(st)
	if err != nil {
		t.Fatalf("second migrate: %v", err)
	}
	for family, n := range again {
		if n != 0 {
			t.Fatalf("second migrate converted %d %s records", n, family)
		}
	}
	return counts
}

func TestRecoverLegacyLayoutByteEquivalent(t *testing.T) {
	// Drive one instance mid-flight in the new layout and fabricate the
	// same execution state as a legacy whole-scope store. Recovery refuses
	// the legacy store; after migrate it recovers byte-identically to the
	// new-layout recovery and finishes with the same result.
	stA := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: stA})
	register(t, rtA, parallelSrc)
	xs := ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3), ocr.Num(4), ocr.Num(5), ocr.Num(6))
	id := start(t, rtA, "Par", map[string]ocr.Value{"xs": xs})
	quiesceSuspended(t, rtA, id, sim.Time(1500*time.Millisecond))

	inA, _ := rtA.Engine.Instance(id)
	stB := store.NewMem()
	writeLegacyInstance(t, stB, inA)

	rtA.Engine.Crash()
	if n, err := rtA.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover new layout = %d, %v", n, err)
	}
	recoverRefusesLegacy(t, stB, []string{id}, 0)
	counts := migrateStore(t, stB)
	if counts["inst"] != 1 || counts["scope"] != len(inA.scopes) {
		t.Fatalf("migrate counts = %v, want 1 inst and %d scope records", counts, len(inA.scopes))
	}
	rtB := newRuntime(t, SimConfig{Store: stB})
	register(t, rtB, parallelSrc)
	if n, err := rtB.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover migrated legacy layout = %d, %v", n, err)
	}

	inA, _ = rtA.Engine.Instance(id)
	inB, ok := rtB.Engine.Instance(id)
	if !ok {
		t.Fatal("legacy instance not recovered")
	}
	dumpA, dumpB := dumpInstance(t, inA), dumpInstance(t, inB)
	if dumpA != dumpB {
		t.Fatalf("migrated legacy recovery diverged from new-layout recovery:\n--- new ---\n%s\n--- legacy ---\n%s", dumpA, dumpB)
	}

	// Both finish with the same answer.
	for _, rt := range []*SimRuntime{rtA, rtB} {
		if err := rt.Engine.Resume(id); err != nil {
			t.Fatal(err)
		}
		rt.Run()
		in := finished(t, rt, id)
		for i := 0; i < 6; i++ {
			if got := in.Outputs["doubled"].At(i).AsNum(); got != float64(2*(i+1)) {
				t.Fatalf("doubled[%d] = %v", i, got)
			}
		}
	}
}

func TestRecoverMixedLayoutStore(t *testing.T) {
	// One disk store holding a new-layout instance alongside a
	// legacy-layout one: recovery adopts the first and refuses the second;
	// after the offline migrate (store stage, core stage, snapshot) both
	// recover byte-identically to the new-layout recovery and complete.
	stA := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: stA})
	register(t, rtA, parallelSrc)
	xs1 := ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3))
	xs2 := ocr.List(ocr.Num(10), ocr.Num(20), ocr.Num(30), ocr.Num(40))
	id1 := start(t, rtA, "Par", map[string]ocr.Value{"xs": xs1})
	id2 := start(t, rtA, "Par", map[string]ocr.Value{"xs": xs2})
	rtA.RunUntil(sim.Time(500 * time.Millisecond))
	for _, id := range []string{id1, id2} {
		if err := rtA.Engine.Suspend(id, false); err != nil {
			t.Fatal(err)
		}
	}
	rtA.RunUntil(sim.Time(2500 * time.Millisecond))

	// id1 keeps its new-layout records; id2 is rewritten as legacy.
	dir := t.TempDir()
	stM, err := store.OpenDisk(dir, store.DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := stA.List(store.Instance)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range kvs {
		if strings.Contains(kv.Key, id1) {
			if err := stM.Put(store.Instance, kv.Key, kv.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	in2, _ := rtA.Engine.Instance(id2)
	writeLegacyInstance(t, stM, in2)
	recoverRefusesLegacy(t, stM, []string{id2}, 1)
	if err := stM.Close(); err != nil {
		t.Fatal(err)
	}

	stM, frames, err := store.MigrateDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 0 {
		t.Fatalf("binary WAL reported %d JSON frames", frames)
	}
	counts := migrateStore(t, stM)
	if counts["inst"] != 1 || counts["scope"] != len(in2.scopes) {
		t.Fatalf("migrate counts = %v, want 1 inst and %d scope records", counts, len(in2.scopes))
	}
	if err := stM.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := stM.Close(); err != nil {
		t.Fatal(err)
	}
	stM, err = store.OpenDisk(dir, store.DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stM.Close()

	rtA.Engine.Crash()
	if n, err := rtA.Engine.Recover(); err != nil || n != 2 {
		t.Fatalf("recover new layout = %d, %v", n, err)
	}
	rtM := newRuntime(t, SimConfig{Store: stM})
	register(t, rtM, parallelSrc)
	if n, err := rtM.Engine.Recover(); err != nil || n != 2 {
		t.Fatalf("recover migrated mixed store = %d, %v", n, err)
	}
	for _, id := range []string{id1, id2} {
		inA, _ := rtA.Engine.Instance(id)
		inM, _ := rtM.Engine.Instance(id)
		if dumpA, dumpM := dumpInstance(t, inA), dumpInstance(t, inM); dumpA != dumpM {
			t.Fatalf("%s: migrated mixed-store recovery diverged from new-layout recovery:\n--- new ---\n%s\n--- migrated ---\n%s", id, dumpA, dumpM)
		}
		if err := rtM.Engine.Resume(id); err != nil {
			t.Fatal(err)
		}
	}
	rtM.Run()
	in1 := finished(t, rtM, id1)
	if got := in1.Outputs["doubled"].At(2).AsNum(); got != 6 {
		t.Fatalf("id1 doubled[2] = %v", got)
	}
	in2 = finished(t, rtM, id2)
	if got := in2.Outputs["doubled"].At(3).AsNum(); got != 80 {
		t.Fatalf("id2 doubled[3] = %v", got)
	}
	rtM.Engine.QuiesceCheckpoints()
}

func TestMigrateLegacyArchiveMatchesEngineArchive(t *testing.T) {
	// A finished instance archived by an engine of the first generation
	// (whole-scope records in the history space) migrates into exactly
	// the records the current engine's archive writes, byte for byte.
	stA := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: stA})
	register(t, rtA, parallelSrc)
	id := start(t, rtA, "Par", map[string]ocr.Value{"xs": ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3))})
	rtA.Run()
	in := finished(t, rtA, id)
	rtA.Engine.QuiesceCheckpoints()

	stB := store.NewMem()
	writeLegacyRecords(t, stB, store.History, in)
	if counts := migrateStore(t, stB); counts["inst"] != 1 || counts["scope"] != len(in.scopes) {
		t.Fatalf("migrate counts = %v, want 1 inst and %d scope records", counts, len(in.scopes))
	}
	want, err := stA.List(store.History)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stB.List(store.History)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("migrated archive has %d records, engine archive %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("record %d: migrated %s = %x, engine %s = %x", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// cutStore commits `left` batches, then fails every later one: a migrate
// interrupted part-way.
type cutStore struct {
	store.Store
	left int
}

func (c *cutStore) Batch(ops []store.Op) error {
	if c.left == 0 {
		return errors.New("interrupted")
	}
	c.left--
	return c.Store.Batch(ops)
}

func TestMigrateInterruptedRerunFinishes(t *testing.T) {
	// Two legacy instances; the first migrate stops after one instance's
	// batch. A rerun converts only the other one and leaves exactly the
	// store an uninterrupted run produces.
	stA := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: stA})
	register(t, rtA, parallelSrc)
	var ids []string
	for _, n := range []float64{1, 10} {
		ids = append(ids, start(t, rtA, "Par", map[string]ocr.Value{"xs": ocr.List(ocr.Num(n), ocr.Num(n+1))}))
	}
	rtA.RunUntil(sim.Time(500 * time.Millisecond))
	clean, cut := store.NewMem(), store.NewMem()
	for _, id := range ids {
		in, _ := rtA.Engine.Instance(id)
		writeLegacyInstance(t, clean, in)
		writeLegacyInstance(t, cut, in)
	}
	if _, err := Migrate(&cutStore{Store: cut, left: 1}); err == nil {
		t.Fatal("interrupted migrate reported success")
	}
	if counts := migrateStore(t, cut); counts["inst"] != 1 {
		t.Fatalf("rerun converted %d inst records, want only the second instance's", counts["inst"])
	}
	migrateStore(t, clean)
	want, _ := clean.List(store.Instance)
	got, _ := cut.List(store.Instance)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("interrupted-then-rerun migrate differs from an uninterrupted one")
	}
}

// tearWALTail truncates the newest WAL segment mid-frame, inside the last
// batch: the cut lands in the middle of the final frame's data, simulating
// a crash between marshal and full commit of a delta batch.
func tearWALTail(t *testing.T, dir string) {
	t.Helper()
	walDir := filepath.Join(dir, "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments")
	}
	sort.Strings(segs)
	tail := filepath.Join(walDir, segs[len(segs)-1])
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the frames (uint32 len|batchFlag, uint32 crc, data) to find
	// where the last frame's data begins, then cut into it.
	const batchFlag = 1 << 31
	var off, lastData int64
	for off+8 <= int64(len(data)) {
		length := int64(binary.LittleEndian.Uint32(data[off:off+4]) &^ batchFlag)
		if off+8+length > int64(len(data)) {
			break
		}
		lastData = off + 8
		off += 8 + length
	}
	if lastData == 0 {
		t.Fatal("no complete frame to tear")
	}
	cut := lastData + (off-lastData)/2
	if cut <= lastData {
		cut = lastData + 1
	}
	if err := os.Truncate(tail, cut); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverTornDeltaBatch(t *testing.T) {
	// A crash mid-checkpoint-batch must roll the store back to the
	// previous complete checkpoint, from which recovery resumes cleanly.
	dir := t.TempDir()
	st, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, parallelSrc)
	xs := ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3), ocr.Num(4))
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": xs})
	rt.RunUntil(sim.Time(1500 * time.Millisecond))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	tearWALTail(t, dir)

	st2, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatalf("reopening torn store: %v", err)
	}
	defer st2.Close()
	rt2 := newRuntime(t, SimConfig{Store: st2})
	if n, err := rt2.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover after torn batch = %d, %v", n, err)
	}
	rt2.Run()
	in := finished(t, rt2, id)
	for i := 0; i < 4; i++ {
		if got := in.Outputs["doubled"].At(i).AsNum(); got != float64(2*(i+1)) {
			t.Fatalf("doubled[%d] = %v", i, got)
		}
	}
}

// toggleStore fails Batch while tripped, then recovers when untripped —
// unlike failingStore it can be disarmed, so tests can provoke a failure
// window and verify the next successful checkpoint repairs it.
type toggleStore struct {
	store.Store
	mu      sync.Mutex
	tripped bool
	fails   int
}

func (f *toggleStore) set(tripped bool) {
	f.mu.Lock()
	f.tripped = tripped
	f.mu.Unlock()
}

func (f *toggleStore) Batch(ops []store.Op) error {
	f.mu.Lock()
	tripped := f.tripped
	if tripped {
		f.fails++
	}
	f.mu.Unlock()
	if tripped {
		return fmt.Errorf("store full")
	}
	return f.Store.Batch(ops)
}

func TestPersistRemarkAfterBatchFailure(t *testing.T) {
	// Checkpoints that fail re-mark their records; the next successful
	// checkpoint must carry them. Fail every batch while Compute finishes,
	// then let one unrelated SetParameter checkpoint through and verify a
	// crash+recover restores the full state, Compute's completion included.
	fs := &toggleStore{Store: store.NewMem()}
	rt := newRuntime(t, SimConfig{Store: fs})
	register(t, rt, approvalSrc)
	id := start(t, rt, "Approval", map[string]ocr.Value{"x": ocr.Num(21)})
	fs.set(true)
	rt.RunUntil(sim.Time(5 * time.Second)) // Compute done, Review awaiting
	if aw := rt.Engine.Awaiting(id); len(aw) != 1 {
		t.Fatalf("awaiting = %v", aw)
	}
	fs.set(false)
	if fs.fails == 0 {
		t.Fatal("no batches failed during the window")
	}
	if err := rt.Engine.SetParameter(id, "note", ocr.Str("repair")); err != nil {
		t.Fatal(err)
	}

	before, _ := rt.Engine.Instance(id)
	dumpBefore := dumpInstance(t, before)
	rt.Engine.Crash()
	if n, err := rt.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover = %d, %v", n, err)
	}
	after, _ := rt.Engine.Instance(id)
	if dumpAfter := dumpInstance(t, after); dumpAfter != dumpBefore {
		t.Fatalf("state lost across failed-checkpoint window:\n--- before ---\n%s\n--- after ---\n%s", dumpBefore, dumpAfter)
	}
	if err := rt.Engine.Signal(id, "approved", map[string]ocr.Value{
		"verdict": ocr.Str("ok"), "correction": ocr.Num(0),
	}); err != nil {
		t.Fatal(err)
	}
	rt.Run()
	in := finished(t, rt, id)
	if got := in.Outputs["published"].At(0).AsNum(); got != 42 {
		t.Fatalf("published = %v", in.Outputs["published"])
	}
}

func TestPersistHotPathAllocs(t *testing.T) {
	// Guard the per-activity checkpoint cost: touching one task, snapshot,
	// marshal and commit must stay allocation-light (the pooled ckpt and
	// flusher scratch absorb the steady-state cost).
	rt := newRuntime(t, SimConfig{})
	register(t, rt, linearSrc)
	id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(2)})
	e := rt.Engine
	in, _ := e.Instance(id)
	mu := e.shardFor(id)
	sc := in.root
	ts := sc.Tasks["Add"]
	run := func() {
		mu.Lock()
		e.touchTask(in, sc, ts)
		e.persist(in)
		cks := in.pendingCkpts
		in.pendingCkpts = nil
		mu.Unlock()
		for _, ck := range cks {
			e.flushCkpt(in, ck)
		}
	}
	run() // warm the pools
	allocs := testing.AllocsPerRun(200, run)
	t.Logf("persist+flush of one dirty task = %.1f allocs", allocs)
	// One task record: DTO snapshot and mem-store value copies. Binary
	// encoding itself is allocation-free (pooled encoder, see
	// TestCodecEncodeAllocs), so the remaining cost is the snapshot and
	// store copy; 20 leaves headroom without hiding a regression to
	// per-record marshal allocations.
	if allocs > 20 {
		t.Errorf("persist+flush of one dirty task = %.1f allocs, want <= 20", allocs)
	}
}
