package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bioopera/internal/codec"
	"bioopera/internal/wal"
)

// jsonWALFrame is a WAL record as JSON-writing engines marshaled it: one
// object per frame.
type jsonWALFrame struct {
	Op    string `json:"op"`
	Space Space  `json:"sp,omitempty"`
	Key   string `json:"k,omitempty"`
	Value []byte `json:"v,omitempty"`
}

// writeOldWAL writes batches of frames straight through wal.Log, as an
// older engine would have: JSON frames, then (as an engine that opened the
// store after the binary codec landed would append) binary ones. mem is
// fed the same operations.
func writeOldWAL(t *testing.T, dir string, mem *Mem) (jsonFrames int) {
	t.Helper()
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(f jsonWALFrame) {
		var err error
		switch f.Op {
		case "put":
			err = mem.Put(f.Space, f.Key, f.Value)
		case "del":
			err = mem.Delete(f.Space, f.Key)
		case "event":
			_, err = mem.AppendEvent(f.Value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < 6; b++ {
		batch := []jsonWALFrame{
			{Op: "put", Space: Instance, Key: fmt.Sprintf("inst/p%04d", b), Value: []byte(`{"id":"x"}`)},
			{Op: "put", Space: History, Key: fmt.Sprintf("inst/p%04d", b+100), Value: []byte{0, 1, 2}},
			{Op: "event", Value: []byte(fmt.Sprintf(`{"kind":"e%d"}`, b))},
		}
		if b%2 == 1 {
			batch = append(batch, jsonWALFrame{Op: "del", Space: Instance, Key: fmt.Sprintf("inst/p%04d", b-1)})
		}
		var frames [][]byte
		for _, f := range batch {
			data, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, data)
			apply(f)
		}
		if _, err := l.AppendBatch(frames); err != nil {
			t.Fatal(err)
		}
		jsonFrames += len(frames)
	}
	enc := codec.Get()
	defer codec.Put(enc)
	encodeWALRecord(enc, walRecord{Op: walKindPut, Space: Configuration, Key: "node/a", Value: []byte("up")})
	encodeWALRecord(enc, walRecord{Op: walKindDel, Space: History, Key: "inst/p0100"})
	if _, err := l.AppendBatch([][]byte{enc.Span(0), enc.Span(1)}); err != nil {
		t.Fatal(err)
	}
	apply(jsonWALFrame{Op: "put", Space: Configuration, Key: "node/a", Value: []byte("up")})
	apply(jsonWALFrame{Op: "del", Space: History, Key: "inst/p0100"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return jsonFrames
}

// sameContents fails unless s holds exactly want's spaces and journal.
func sameContents(t *testing.T, s Store, want *Mem) {
	t.Helper()
	for sp := Space(0); sp < numSpaces; sp++ {
		got, err := s.List(sp)
		if err != nil {
			t.Fatal(err)
		}
		exp, _ := want.List(sp)
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("space %s:\n got %q\nwant %q", sp, got, exp)
		}
	}
	var got, exp []Event
	collect := func(into *[]Event) func(Event) error {
		return func(e Event) error { *into = append(*into, e); return nil }
	}
	if err := s.Events(1, collect(&got)); err != nil {
		t.Fatal(err)
	}
	if err := want.Events(1, collect(&exp)); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(exp) {
		t.Fatalf("events: got %d, want %d", len(got), len(exp))
	}
	for i := range got {
		if got[i].Seq != exp[i].Seq || !bytes.Equal(got[i].Data, exp[i].Data) {
			t.Fatalf("event %d: got %d %q, want %d %q", i, got[i].Seq, got[i].Data, exp[i].Seq, exp[i].Data)
		}
	}
}

func TestOpenDiskRefusesJSONWAL(t *testing.T) {
	dir := t.TempDir()
	writeOldWAL(t, dir, NewMem())
	d, err := OpenDisk(dir, DiskOptions{})
	if err == nil {
		d.Close()
		t.Fatal("OpenDisk accepted a JSON WAL frame")
	}
	if !errors.Is(err, codec.ErrLegacy) || !strings.Contains(err.Error(), "bioopera migrate") || !strings.Contains(err.Error(), dir) {
		t.Fatalf("OpenDisk error = %v, want codec.ErrLegacy naming `bioopera migrate` and %s", err, dir)
	}
}

func TestMigrateDiskConvertsJSONWAL(t *testing.T) {
	dir := t.TempDir()
	mem := NewMem()
	frames := writeOldWAL(t, dir, mem)

	d, n, err := MigrateDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != frames {
		t.Fatalf("converted %d JSON frames, want %d", n, frames)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("OpenDisk after migrate: %v", err)
	}
	sameContents(t, d, mem)
	digest, err := d.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A second run finds nothing to convert and changes nothing.
	d, n, err = MigrateDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("second migrate converted %d frames, want 0", n)
	}
	again, err := d.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if again != digest {
		t.Fatal("second migrate changed the store contents")
	}
	sameContents(t, d, mem)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
