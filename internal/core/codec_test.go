package core

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// fuzzValue builds one whiteboard value from fuzz primitives. NaN is
// replaced (it round-trips through the codec but compares unequal to
// itself, which would make DeepEqual report false corruption).
func fuzzValue(sel uint8, num float64, s string) ocr.Value {
	if math.IsNaN(num) {
		num = 0
	}
	switch sel % 5 {
	case 0:
		return ocr.Null
	case 1:
		return ocr.Bool(num > 0)
	case 2:
		return ocr.Num(num)
	case 3:
		return ocr.Str(s)
	default:
		return ocr.List(ocr.Num(num), ocr.Str(s), ocr.Null, ocr.List(ocr.Bool(num < 0)))
	}
}

// fuzzValueMap builds a small map; count 0 yields nil, matching the
// codec's empty-decodes-nil rule (and JSON omitempty).
func fuzzValueMap(n uint8, key string, sel uint8, num float64, s string) map[string]ocr.Value {
	count := int(n % 4)
	if count == 0 {
		return nil
	}
	m := make(map[string]ocr.Value, count)
	for i := 0; i < count; i++ {
		m[key+string(rune('a'+i))] = fuzzValue(sel+uint8(i), num+float64(i), s)
	}
	return m
}

// FuzzCodecRoundTrip drives every DTO family through binary encode →
// decode and requires the result to be structurally identical to the
// input. The DTOs are built from fuzz primitives so the corpus explores
// string-interning collisions, extreme ints, and empty-vs-populated
// containers.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add("p0001", "Par", "tenant-a", "", uint8(2), -3, true, int64(12345), int64(-1), "out", "val", 2.5, uint8(2), uint8(7))
	f.Add("", "", "", "node fell over", uint8(200), math.MaxInt32, false, int64(math.MinInt64), int64(math.MaxInt64), "k", "k", math.Inf(1), uint8(3), uint8(0))
	f.Add("x", "x", "x", "x", uint8(0), 0, false, int64(0), int64(0), "x", "x", -0.0, uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, id, tmpl, tenant, reason string, status uint8, prio int, nice bool, t1, t2 int64, key, s string, num float64, n, sel uint8) {
		meta := instanceDTO{
			ID: id, Template: tmpl, Status: InstanceStatus(status),
			Priority: prio, Nice: nice, Tenant: tenant,
			Started: sim.Time(t1), Ended: sim.Time(t2),
			Activities: int(n), CPU: time.Duration(t1 ^ t2),
			Failures: prio, Retries: int(status),
			Outputs:       fuzzValueMap(n, key, sel, num, s),
			FailureReason: reason,
		}
		create := scopeCreateDTO{
			ID: id, Parent: tmpl, IsRoot: nice, ParentTask: key,
			ElemIndex: prio, ProcRef: tenant, ProcText: s,
		}
		dyn := scopeDynDTO{
			Entries: fuzzValueMap(n+1, key, sel+1, num, s),
			Full:    nice, Done: !nice,
		}
		if n%3 == 1 {
			dyn.Drop = []string{key, s, key}
		}
		task := taskDTO{
			Name: id, Status: TaskStatus(status), Attempts: prio,
			Inputs:  fuzzValueMap(n, key, sel, num, s),
			Outputs: fuzzValueMap(n+2, s, sel+3, num, key),
			Node:    tenant, Job: tmpl, AltOf: reason,
			ReadyAt: sim.Time(t1), StartedAt: sim.Time(t2), EndedAt: sim.Time(t1 + t2),
			CPUTime: time.Duration(t2), ChildWaiting: int(n),
		}
		if sel%2 == 0 {
			task.Results = []ocr.Value{fuzzValue(sel, num, s), fuzzValue(sel+1, -num, key)}
		}
		if sel%3 == 0 {
			task.OverElems = []ocr.Value{fuzzValue(sel+2, num, s)}
		}

		e := codec.Get()
		defer codec.Put(e)
		encodeMeta(e, &meta)
		encodeCreate(e, &create)
		encodeDyn(e, &dyn)
		encodeTask(e, &task)

		gotMeta, err := decodeMeta(e.Span(0))
		if err != nil {
			t.Fatalf("meta: %v", err)
		}
		if !reflect.DeepEqual(gotMeta, meta) {
			t.Fatalf("meta round trip:\n got %+v\nwant %+v", gotMeta, meta)
		}
		gotCreate, err := decodeCreate(e.Span(1))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if !reflect.DeepEqual(gotCreate, create) {
			t.Fatalf("create round trip:\n got %+v\nwant %+v", gotCreate, create)
		}
		gotDyn, err := decodeDyn(e.Span(2))
		if err != nil {
			t.Fatalf("dyn: %v", err)
		}
		if !reflect.DeepEqual(gotDyn, dyn) {
			t.Fatalf("dyn round trip:\n got %+v\nwant %+v", gotDyn, dyn)
		}
		gotTask, err := decodeTask(e.Span(3))
		if err != nil {
			t.Fatalf("task: %v", err)
		}
		if !reflect.DeepEqual(gotTask, task) {
			t.Fatalf("task round trip:\n got %+v\nwant %+v", gotTask, task)
		}
	})
}

// TestCodecEncodeAllocs is the tentpole's headline number: steady-state
// binary encoding of persist records allocates nothing. The pooled
// encoder's buffer, mark slice, intern table and key scratch all survive
// Reset, so a warm flusher costs zero allocations per record.
func TestCodecEncodeAllocs(t *testing.T) {
	meta := instanceDTO{
		ID: "p0001", Template: "Par", Status: InstanceSuspended,
		Started: 100, Activities: 7, CPU: 3 * time.Second,
		Outputs: map[string]ocr.Value{"doubled": ocr.List(ocr.Num(2), ocr.Num(4))},
	}
	task := taskDTO{
		Name: "Add", Status: TaskEnded, Attempts: 1,
		Inputs:  map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(2)},
		Outputs: map[string]ocr.Value{"sum": ocr.Num(3)},
		Node:    "ik0", Job: "j0001", ReadyAt: 10, StartedAt: 20, EndedAt: 30,
	}
	e := codec.Get()
	defer codec.Put(e)
	run := func() {
		e.Reset()
		encodeMeta(e, &meta)
		encodeTask(e, &task)
	}
	run() // warm the buffer, intern table, and key scratch
	if allocs := testing.AllocsPerRun(500, run); allocs != 0 {
		t.Errorf("steady-state record encode = %v allocs, want 0", allocs)
	}
}

// TestRecoverJSONDeltaStoreByteEquivalent is the format-migration
// dependability property: recovery refuses a store written by the previous
// (JSON) engine generation, and after migrate the store recovers into
// exactly the state the binary engine recovers from its own store.
func TestRecoverJSONDeltaStoreByteEquivalent(t *testing.T) {
	stA := store.NewMem()
	rtA := newRuntime(t, SimConfig{Store: stA})
	register(t, rtA, parallelSrc)
	xs := ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3), ocr.Num(4), ocr.Num(5))
	id := start(t, rtA, "Par", map[string]ocr.Value{"xs": xs})
	quiesceSuspended(t, rtA, id, sim.Time(1500*time.Millisecond))

	// Rewrite the binary store as the JSON engine would have written it:
	// decode each binary delta record and json.Marshal the identical DTO
	// (same structs, same tags — byte-for-byte the old generation's
	// records). proc/ texts are format-free and copy verbatim.
	stB := store.NewMem()
	kvs, err := stA.List(store.Instance)
	if err != nil {
		t.Fatal(err)
	}
	converted := 0
	for _, kv := range kvs {
		v := kv.Value
		if len(v) > 0 && v[0] == codec.Magic {
			converted++
			var dto any
			switch {
			case strings.HasPrefix(kv.Key, "inst/"):
				dto, err = decodeMeta(v)
			case strings.HasPrefix(kv.Key, "scopec/"):
				dto, err = decodeCreate(v)
			case strings.HasPrefix(kv.Key, "scoped/"):
				dto, err = decodeDyn(v)
			case strings.HasPrefix(kv.Key, "task/"):
				dto, err = decodeTask(v)
			default:
				t.Fatalf("unexpected binary record %q", kv.Key)
			}
			if err != nil {
				t.Fatalf("decode %s: %v", kv.Key, err)
			}
			if v, err = json.Marshal(dto); err != nil {
				t.Fatal(err)
			}
		}
		if err := stB.Put(store.Instance, kv.Key, v); err != nil {
			t.Fatal(err)
		}
	}
	if converted == 0 {
		t.Fatal("binary engine wrote no binary records; test is vacuous")
	}

	rtA.Engine.Crash()
	if n, err := rtA.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover binary store = %d, %v", n, err)
	}
	recoverRefusesLegacy(t, stB, []string{id}, 0)
	counts := migrateStore(t, stB)
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != converted || counts["inst"] != 1 {
		t.Fatalf("migrate counts = %v, want %d records with 1 inst", counts, converted)
	}
	rtB := newRuntime(t, SimConfig{Store: stB})
	register(t, rtB, parallelSrc)
	if n, err := rtB.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover migrated JSON store = %d, %v", n, err)
	}

	inA, _ := rtA.Engine.Instance(id)
	inB, ok := rtB.Engine.Instance(id)
	if !ok {
		t.Fatal("JSON-store instance not recovered")
	}
	if dumpA, dumpB := dumpInstance(t, inA), dumpInstance(t, inB); dumpA != dumpB {
		t.Fatalf("migrated JSON-store recovery diverged from binary-store recovery:\n--- binary ---\n%s\n--- json ---\n%s", dumpA, dumpB)
	}

	// Both finish with the same answer.
	for _, rt := range []*SimRuntime{rtA, rtB} {
		if err := rt.Engine.Resume(id); err != nil {
			t.Fatal(err)
		}
		rt.Run()
		in := finished(t, rt, id)
		for i := 0; i < 5; i++ {
			if got := in.Outputs["doubled"].At(i).AsNum(); got != float64(2*(i+1)) {
				t.Fatalf("doubled[%d] = %v", i, got)
			}
		}
	}
}
