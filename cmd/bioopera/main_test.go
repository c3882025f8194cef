package main

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"bioopera/internal/codec"
	"bioopera/internal/core"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
	"bioopera/internal/wal"
)

func TestParseInputs(t *testing.T) {
	in, err := parseInputs([]string{
		"n=42",
		"name=plain-string",
		"xs=[1,2,3]",
		"flag=true",
		"expr=2*21",
		`quoted="with = sign"`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if in["n"].AsNum() != 42 {
		t.Fatalf("n = %v", in["n"])
	}
	if in["name"].AsStr() != "plain-string" {
		t.Fatalf("name = %v", in["name"])
	}
	if in["xs"].Len() != 3 {
		t.Fatalf("xs = %v", in["xs"])
	}
	if !in["flag"].AsBool() {
		t.Fatalf("flag = %v", in["flag"])
	}
	if in["expr"].AsNum() != 42 {
		t.Fatalf("expr = %v", in["expr"])
	}
	if in["quoted"].AsStr() != "with = sign" {
		t.Fatalf("quoted = %v", in["quoted"])
	}
	if _, err := parseInputs([]string{"novalue"}); err == nil {
		t.Fatal("missing '=' accepted")
	}
}

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"ik-sun", "ik-linux", "linneus", "shared"} {
		spec, err := specByName(name)
		if err != nil || spec.TotalCPUs() == 0 {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := specByName("beowulf"); err == nil {
		t.Fatal("unknown cluster accepted")
	}
}

func TestStubLibraryCoversNestedCalls(t *testing.T) {
	ps, err := ocr.ParseFile(`
PROCESS P {
  ACTIVITY A { CALL outer.prog(); OUT r; }
  BLOCK B PARALLEL OVER [1] AS x {
    OUTPUT o;
    ACTIVITY Inner { CALL inner.prog(v = x); OUT o; MAP o -> o; }
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	lib := stubLibrary(ps, false)
	for _, name := range []string{"outer.prog", "inner.prog"} {
		p, ok := lib.Lookup(name)
		if !ok {
			t.Fatalf("stub for %s missing", name)
		}
		out, err := p.Run(core.ProgramCtx{}, map[string]ocr.Value{"r": ocr.Str("echoed")})
		if err != nil {
			t.Fatal(err)
		}
		if name == "outer.prog" && out["r"].AsStr() != "echoed" {
			t.Fatalf("stub did not echo same-named arg: %v", out)
		}
	}
}

func TestFmtArgsDeterministic(t *testing.T) {
	args := map[string]ocr.Value{"b": ocr.Int(2), "a": ocr.Int(1)}
	if got := fmtArgs(args); got != "a=1, b=2" {
		t.Fatalf("fmtArgs = %q", got)
	}
}

func TestHistoryFailsOnUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenDisk(dir, store.DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.History, "inst/p0007", []byte{codec.Magic, codec.Version, 1, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	err = cmdHistory([]string{dir})
	if err == nil || !strings.Contains(err.Error(), "inst/p0007") {
		t.Fatalf("history over a corrupt record = %v, want an error naming inst/p0007", err)
	}
}

func TestMigrateCommand(t *testing.T) {
	// A store as a JSON-writing engine left it: one JSON WAL frame putting
	// a JSON instance record into the history space.
	dir := t.TempDir()
	meta, err := json.Marshal(core.InstanceMeta{ID: "p0001", Template: "Chain", Status: core.InstanceDone})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := json.Marshal(map[string]any{"op": "put", "sp": store.History, "k": "inst/p0001", "v": meta})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch([][]byte{frame}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if err := cmdHistory([]string{dir}); !errors.Is(err, codec.ErrLegacy) || !strings.Contains(err.Error(), "bioopera migrate") {
		t.Fatalf("history before migrate = %v, want codec.ErrLegacy naming bioopera migrate", err)
	}
	if err := cmdMigrate([]string{dir, "-x"}); err == nil {
		t.Fatal("migrate accepted a flag")
	}
	for run := 0; run < 2; run++ {
		if err := cmdMigrate([]string{dir}); err != nil {
			t.Fatalf("migrate run %d: %v", run, err)
		}
	}
	st, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v, ok, err := st.Get(store.History, "inst/p0001")
	if err != nil || !ok {
		t.Fatalf("migrated record missing: %v", err)
	}
	m, err := core.DecodeInstanceMeta(v)
	if err != nil || m.ID != "p0001" || m.Template != "Chain" || m.Status != core.InstanceDone {
		t.Fatalf("migrated record = %+v, %v", m, err)
	}
}
