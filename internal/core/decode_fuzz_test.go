package core

import (
	"strings"
	"testing"

	"bioopera/internal/codec"
	"bioopera/internal/store"
)

// FuzzDecodeInstanceRecords hammers the delta-record decode path with
// arbitrary key/value pairs. Recovery feeds this function raw store
// contents, so it must never panic — corrupt input yields an error (or is
// ignored for unrecognized keys), nothing else. Torn records, misfiled
// kinds, truncated keys, wrong prefixes, and embedded separators are all
// fair game. Recovery reads one format only: a record without the codec
// magic (a JSON record of an earlier engine) or under a whole-scope
// scope/ key never decodes.
func FuzzDecodeInstanceRecords(f *testing.F) {
	e := codec.Get()
	encodeCreate(e, &scopeCreateDTO{ID: "", IsRoot: true, ProcRef: "0011223344556677"})
	encodeTask(e, &taskDTO{Name: "Add", Status: TaskReady})
	encodeDyn(e, &scopeDynDTO{Full: true})
	encodeCreate(e, &scopeCreateDTO{ID: "Fan[2]", Parent: "", ParentTask: "Fan", ElemIndex: 2, ProcRef: "0011223344556677"})
	createBin := append([]byte(nil), e.Span(0)...)
	taskBin := append([]byte(nil), e.Span(1)...)
	dynBin := append([]byte(nil), e.Span(2)...)
	childBin := append([]byte(nil), e.Span(3)...)
	codec.Put(e)
	// Well-formed seeds, one per record family, plus near-misses.
	f.Add("scopec/p0001/-", createBin, "task/p0001/-/Add", taskBin)
	f.Add("scoped/p0001/-", dynBin, "proc/p0001/0011223344556677", []byte("PROCESS P {}"))
	f.Add("scopec/p0001/Fan[2]", childBin, "task/p0001/A/B[1]/T", taskBin)
	f.Add("scoped/p0001/-", dynBin, "scopec/p0001/-", taskBin) // misfiled kind
	f.Add("task/p0001", taskBin[:3], "scopec/", []byte{codec.Magic})
	f.Add("task/p0001/-/Add", taskBin[:len(taskBin)-2], "scoped/p0001/-", []byte{codec.Magic, 0xFF})
	f.Add("", []byte(""), "proc//", []byte{0xff, 0xfe})
	// Records of earlier engine generations: refused, never decoded.
	f.Add("scope/p0001/-", []byte(`{"id":"","tasks":[]}`), "scopec/p0001/Fan[2]", childBin)
	f.Add("scopec/p0001/-", []byte(`{"id":"","procRef":"0011223344556677"}`), "task/p0001/-/Add", []byte(`{"name":"Add"}`))
	f.Add("scoped/p0001/-", []byte(`{"full":true}`), "scope/p0001/-", dynBin)
	canonical := map[string]string{
		"scope":  "scope/p0001/-",
		"scopec": "scopec/p0001/-",
		"scoped": "scoped/p0001/-",
		"task":   "task/p0001/-/T",
	}
	f.Fuzz(func(t *testing.T, k1 string, v1 []byte, k2 string, v2 []byte) {
		kvs := []store.KV{{Key: k1, Value: v1}, {Key: k2, Value: v2}}
		for _, kv := range kvs {
			family, _, _ := strings.Cut(kv.Key, "/")
			key, ok := canonical[family]
			if !ok || (family != "scope" && len(kv.Value) > 0 && kv.Value[0] == codec.Magic) {
				continue
			}
			if _, _, err := decodeInstanceRecords([]store.KV{{Key: key, Value: kv.Value}}); err == nil {
				t.Fatalf("%s record %q decoded, want it refused", key, kv.Value)
			}
		}
		recMap, procs, err := decodeInstanceRecords(kvs)
		if err != nil {
			return
		}
		// On success the maps must be well-formed: no nil records, and
		// every record's scopeID matches its map key.
		for id, r := range recMap {
			if r == nil {
				t.Fatalf("nil scopeRec under %q", id)
			}
			if r.scopeID != id {
				t.Fatalf("scopeRec %q filed under %q", r.scopeID, id)
			}
		}
		_ = procs
	})
}
