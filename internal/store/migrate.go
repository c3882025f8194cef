package store

import (
	"encoding/json"
	"fmt"

	"bioopera/internal/codec"
)

// The store stage of `bioopera migrate`: the only reader of the JSON WAL
// frames that engines before the binary codec wrote. OpenDisk refuses
// them; MigrateDisk replays them and folds them into a snapshot.

// MigrateDisk opens the disk store in dir as OpenDisk does, except that
// its WAL replay also accepts JSON frames, and then snapshots: the image
// holds the replayed state and the WAL it covers is truncated, so the
// store reopens with OpenDisk. It returns the open store and the number of
// JSON frames converted. A run cut short leaves the old WAL or the new
// snapshot in place, and a rerun finishes from either.
func MigrateDisk(dir string) (*Disk, int, error) {
	converted := 0
	d, err := openDisk(dir, DiskOptions{}, func(data []byte) (walRecord, error) {
		if codec.Sniff(data) {
			return decodeWALRecord(data)
		}
		var old struct { // a WAL frame as JSON-writing engines encoded it
			Op    string `json:"op"`
			Space Space  `json:"sp"`
			Key   string `json:"k"`
			Value []byte `json:"v"`
		}
		if err := json.Unmarshal(data, &old); err != nil {
			return walRecord{}, err
		}
		kind := map[string]byte{"put": walKindPut, "del": walKindDel, "event": walKindEvent}[old.Op]
		if kind == 0 {
			return walRecord{}, fmt.Errorf("store: unknown wal op %q", old.Op)
		}
		converted++
		return walRecord{Op: kind, Space: old.Space, Key: old.Key, Value: old.Value}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	if err := d.Snapshot(); err != nil {
		//bioopera:allow droppederr the snapshot error is returned; closing the store is best-effort
		d.Close()
		return nil, 0, err
	}
	return d, converted, nil
}
