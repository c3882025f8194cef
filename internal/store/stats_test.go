package store

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bioopera/internal/obs"
)

// TestDiskStats pins the Stats snapshot: record counts per space, journal
// shape, WAL accounting, and snapshot bookkeeping — across a snapshot and
// a reopen.
func TestDiskStats(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if err := d.Put(Instance, fmt.Sprintf("p%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Put(Template, "tpl", []byte("def")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(Instance, "p0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.AppendEvent([]byte(`{"n":1}`)); err != nil {
			t.Fatal(err)
		}
	}

	s := d.Stats()
	if s.Records[Instance.String()] != 2 || s.Records[Template.String()] != 1 {
		t.Fatalf("records = %v", s.Records)
	}
	if s.Events != 5 || s.EventSeq != 5 {
		t.Fatalf("journal: %d events, seq %d", s.Events, s.EventSeq)
	}
	if s.WALSegments == 0 || s.WALSyncs == 0 {
		t.Fatalf("wal: segments=%d syncs=%d", s.WALSegments, s.WALSyncs)
	}
	// 10 writes so far (4 puts + 1 delete + 5 events): the next WAL record
	// must be numbered past all of them.
	if s.WALNextSeq <= 10 {
		t.Fatalf("wal next seq = %d", s.WALNextSeq)
	}
	if s.SnapshotSeq != 0 {
		t.Fatalf("snapshot seq = %d before any snapshot", s.SnapshotSeq)
	}

	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().SnapshotSeq; got == 0 {
		t.Fatalf("snapshot seq still 0 after Snapshot")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery rebuilds the same shape (WAL sync/group counters restart;
	// they describe the current process, not history).
	d2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	r := d2.Stats()
	if r.Records[Instance.String()] != 2 || r.Records[Template.String()] != 1 {
		t.Fatalf("recovered records = %v", r.Records)
	}
	if r.Events != 5 || r.EventSeq != 5 {
		t.Fatalf("recovered journal: %d events, seq %d", r.Events, r.EventSeq)
	}
	if r.SnapshotSeq == 0 {
		t.Fatalf("recovered snapshot seq = 0")
	}
}

// TestDiskStatsGauges checks that a metrics-enabled store exports the
// Stats fields as scrape-time gauges.
func TestDiskStatsGauges(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := OpenDisk(t.TempDir(), DiskOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put(Instance, "p1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendEvent([]byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`bioopera_store_records{space="instance"} 1`,
		"bioopera_store_events 1",
		"bioopera_store_wal_segments 1",
		"bioopera_wal_append_seconds_count",
		"bioopera_wal_fsync_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestShipLagGauge checks that StartShipping on a metrics-enabled store
// exports the standby lag gauge, and that it reads 0 once the standby has
// caught up.
func TestShipLagGauge(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := OpenDisk(t.TempDir(), DiskOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	shipper, err := p.StartShipping("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer shipper.Close()
	sb, err := OpenStandby(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	followDone := make(chan error, 1)
	go func() { followDone <- sb.Follow(shipper.Addr(), t.Logf) }()
	defer func() {
		sb.Close()
		<-followDone
	}()
	for i := 0; i < 5; i++ {
		if err := p.Put(Instance, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	want, err := p.Digest()
	if err != nil {
		t.Fatal(err)
	}
	waitDigest(t, sb.Store(), want)
	// The shipper records its cursor just after the send the standby
	// applied, so the gauge may trail the digest briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var out strings.Builder
		if err := reg.WriteProm(&out); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out.String(), "bioopera_wal_ship_lag_records 0") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("exposition missing the caught-up lag gauge:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
