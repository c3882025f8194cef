package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// The core stage of `bioopera migrate`: the only reader of the record
// formats earlier engine generations wrote — whole-scope scope/ records
// (before delta checkpoints) and JSON delta records (before the binary
// codec). Recovery refuses both with codec.ErrLegacy; Migrate rewrites
// them as the binary records the current engine writes.

// scopeDTO is the whole-scope record of the first engine generation,
// stored under scope/<id>/<scope>.
type scopeDTO struct {
	ID         string               `json:"id"`
	Parent     string               `json:"parent"`
	IsRoot     bool                 `json:"isRoot,omitempty"`
	ParentTask string               `json:"parentTask,omitempty"`
	ElemIndex  int                  `json:"elemIndex"`
	ProcText   string               `json:"proc"`
	Whiteboard map[string]ocr.Value `json:"whiteboard"`
	Tasks      []taskDTO            `json:"tasks"`
	Done       bool                 `json:"done,omitempty"`
}

// Migrate converts the Instance and History spaces of st to the current
// record format, with one atomic batch per instance per space:
//
//   - a JSON inst/, scopec/, scoped/ or task/ record is rewritten as the
//     binary record of the same DTO, under the same key;
//   - a scope/ record is replaced by the scopec/, scoped/ (Full) and task/
//     records and the interned proc/ text the current engine writes for
//     that scope, and deleted. A delta record already stored for the same
//     scope is kept: it is newer.
//
// Binary records and proc/ texts are left alone, so a second run converts
// nothing, and a run cut short leaves whole instances converted that a
// rerun skips. Migrate returns the number of records converted per family
// (the key prefix: "inst", "scope", "scopec", "scoped", "task").
func Migrate(st store.Store) (map[string]int, error) {
	counts := make(map[string]int)
	e := codec.Get()
	defer codec.Put(e)
	for _, space := range []store.Space{store.Instance, store.History} {
		kvs, err := st.List(space)
		if err != nil {
			return counts, err
		}
		groups := make(map[string][]store.KV)
		for _, kv := range kvs {
			family, rest, _ := strings.Cut(kv.Key, "/")
			id, _, _ := strings.Cut(rest, "/")
			if family != "proc" && !codec.Sniff(kv.Value) {
				groups[id] = append(groups[id], kv)
			}
		}
		ids := make([]string, 0, len(groups))
		for id := range groups {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			ops, converted, err := migrateInstance(e, space, id, groups[id], kvs)
			if err == nil {
				err = st.Batch(ops)
			}
			if err != nil {
				return counts, fmt.Errorf("core: migrating %s instance %s: %w", space, id, err)
			}
			for family, n := range converted {
				counts[family] += n
			}
		}
	}
	return counts, nil
}

// migrateInstance builds the batch that converts one instance's old
// records, encoding into e; its values alias e's buffer. all holds every
// record of the space, sorted, to find the delta records and proc/ texts
// already stored.
func migrateInstance(e *codec.Encoder, space store.Space, id string, old, all []store.KV) ([]store.Op, map[string]int, error) {
	exists := func(key string) bool {
		i := sort.Search(len(all), func(i int) bool { return all[i].Key >= key })
		return i < len(all) && all[i].Key == key
	}
	e.Reset()
	var (
		keys      []string // key of encoded record i
		ops       []store.Op
		converted = make(map[string]int)
	)
	splitScope := func(data []byte) error {
		var dto scopeDTO
		if err := json.Unmarshal(data, &dto); err != nil {
			return err
		}
		hash := procHash(dto.ProcText)
		if key := procKey(id, hash); !exists(key) {
			ops = append(ops, store.Op{Space: space, Key: key, Value: []byte(dto.ProcText)})
		}
		if key := scopeCreateKey(id, dto.ID); !exists(key) {
			encodeCreate(e, &scopeCreateDTO{ID: dto.ID, Parent: dto.Parent, IsRoot: dto.IsRoot,
				ParentTask: dto.ParentTask, ElemIndex: dto.ElemIndex, ProcRef: hash})
			keys = append(keys, key)
		}
		if key := scopeDynKey(id, dto.ID); !exists(key) {
			encodeDyn(e, &scopeDynDTO{Entries: dto.Whiteboard, Full: true, Done: dto.Done})
			keys = append(keys, key)
		}
		for i := range dto.Tasks {
			td := &dto.Tasks[i]
			if key := taskKey(id, dto.ID, td.Name); !exists(key) {
				td.ChildWaiting, td.Results = 0, nil // derived state, see taskDTO
				encodeTask(e, td)
				keys = append(keys, key)
			}
		}
		return nil
	}
	for _, kv := range old {
		family, _, _ := strings.Cut(kv.Key, "/")
		var err error
		switch family {
		case "inst":
			err = recode(e, kv.Value, encodeMeta)
		case "scopec":
			err = recode(e, kv.Value, encodeCreate)
		case "scoped":
			err = recode(e, kv.Value, encodeDyn)
		case "task":
			err = recode(e, kv.Value, encodeTask)
		case "scope":
			err = splitScope(kv.Value)
		default:
			continue // not an engine record family
		}
		if err != nil {
			return nil, nil, fmt.Errorf("record %s: %w", kv.Key, err)
		}
		if family == "scope" {
			ops = append(ops, store.Op{Space: space, Key: kv.Key, Delete: true})
		} else {
			keys = append(keys, kv.Key)
		}
		converted[family]++
	}
	// Spans are taken only after every record is encoded: appending can
	// relocate the encoder's buffer.
	for i, key := range keys {
		ops = append(ops, store.Op{Space: space, Key: key, Value: e.Span(i)})
	}
	return ops, converted, nil
}

// recode re-encodes one JSON record as the binary record of the same DTO.
func recode[T any](e *codec.Encoder, data []byte, encode func(*codec.Encoder, *T) int) error {
	var dto T
	if err := json.Unmarshal(data, &dto); err != nil {
		return err
	}
	encode(e, &dto)
	return nil
}
