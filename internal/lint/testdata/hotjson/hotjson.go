// Package hotjson is a biooperalint golden fixture: encoding/json use
// inside persist hot-path functions. The fixture package stands in for
// internal/core, so the hot-function names below match the real engine's
// checkpoint flusher.
package hotjson

import (
	"bytes"
	"encoding/json"
	enc "encoding/json"
)

type record struct {
	ID string `json:"id"`
}

// flushCkpt is a hot-path name: reflection-based marshaling is banned.
func flushCkpt(r record) ([]byte, error) {
	return json.Marshal(r) // want `json\.Marshal in persist hot-path function flushCkpt`
}

// encodeCkpt catches aliased imports too.
func encodeCkpt(r record) ([]byte, error) {
	return enc.Marshal(r) // want `json\.Marshal in persist hot-path function encodeCkpt`
}

// persist catches streaming encoders as well as one-shot marshals.
func persist(r record) error {
	var buf bytes.Buffer
	return json.NewEncoder(&buf).Encode(r) // want `json\.NewEncoder in persist hot-path function persist`
}

// buildScopes is a hot-path name: recovery reads binary records only.
func buildScopes(data []byte) (record, error) {
	var r record
	err := json.Unmarshal(data, &r) // want `json\.Unmarshal in persist hot-path function buildScopes`
	return r, err
}

// migrateInstance is not a hot-path name: the offline migration reads the
// JSON records of older stores — the invariant bans json on the engine's
// write and recovery paths, not in the converter.
func migrateInstance(data []byte) (record, error) {
	var r record
	err := json.Unmarshal(data, &r)
	return r, err
}

// archive documents a sanctioned exception; the directive silences it.
func archive(r record) ([]byte, error) {
	//bioopera:allow hotjson fixture: exercising the suppression path
	return json.Marshal(r)
}
