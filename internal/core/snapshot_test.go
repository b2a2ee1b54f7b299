package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// snapshotJSON renders a snapshot to canonical JSON for byte comparisons.
func snapshotJSON(t *testing.T, snap *SessionSnapshot) []byte {
	t.Helper()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshalling snapshot: %v", err)
	}
	return b
}

// TestSnapshotRoundTripFresh covers a session that has not explored yet.
func TestSnapshotRoundTripFresh(t *testing.T) {
	s := newTestSession(t)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != SnapshotFormatVersion {
		t.Errorf("version %d, want %d", snap.Version, SnapshotFormatVersion)
	}
	if snap.Last != nil || len(snap.History) != 0 {
		t.Errorf("fresh session snapshot carries result/history: %+v", snap)
	}
	if len(snap.Binding) == 0 {
		t.Error("snapshot lost the source binding")
	}

	restored, err := RestoreSession(s.Planner(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Current().Fingerprint(), s.Current().Fingerprint(); got != want {
		t.Errorf("restored flow fingerprint %s, want %s", got, want)
	}
	if !reflect.DeepEqual(restored.Binding(), s.Binding()) {
		t.Errorf("binding did not round-trip:\n got %+v\nwant %+v", restored.Binding(), s.Binding())
	}
}

// resultJSON renders a result through its snapshot form for byte comparisons.
func resultJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	rs, err := SnapshotResult(res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatalf("marshalling result snapshot: %v", err)
	}
	return b
}

// TestSnapshotRoundTripFull drives a real explore→select→explore loop. The
// snapshot holds intent only (flow, binding, history — no result). A legacy
// snapshot that embeds the result in Last, built explicitly through
// SnapshotResult, still restores eagerly: snapshotting the restored session
// reproduces the intent byte for byte, its result re-serializes to the
// embedded bytes, and a skyline member can be selected by index. Restoring
// the intent alone and exploring again reproduces the result byte for byte.
func TestSnapshotRoundTripFull(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Explore(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select(0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Explore()
	if err != nil {
		t.Fatal(err)
	}

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.History) != 1 {
		t.Fatalf("history length %d, want 1", len(snap.History))
	}
	if snap.Last != nil {
		t.Fatal("Snapshot embedded the last result; snapshots hold intent only")
	}

	legacy := *snap
	if legacy.Last, err = SnapshotResult(res); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(s.Planner(), &legacy)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := snapshotJSON(t, snap), snapshotJSON(t, again); !bytes.Equal(a, b) {
		t.Errorf("snapshot is not a fixed point:\n first %s\nsecond %s", a, b)
	}

	// The restored result supports the same interactions: selecting a skyline
	// member by index works and advances the history.
	got := restored.LastResult()
	if got == nil || len(got.SkylineIdx) != len(res.SkylineIdx) {
		t.Fatalf("restored last result skyline %v, want %v", got, res.SkylineIdx)
	}
	if a, b := resultJSON(t, res), resultJSON(t, got); !bytes.Equal(a, b) {
		t.Errorf("legacy result did not round-trip:\n  orig %s\nrestored %s", a, b)
	}
	if !reflect.DeepEqual(restored.History(), s.History()) {
		t.Errorf("history did not round-trip: %+v vs %+v", restored.History(), s.History())
	}
	alt, err := restored.Select(0)
	if err != nil {
		t.Fatalf("select on restored session: %v", err)
	}
	want := res.Alternatives[res.SkylineIdx[0]].Graph.Fingerprint()
	if alt.Graph.Fingerprint() != want {
		t.Errorf("restored select integrated %s, want %s", alt.Graph.Fingerprint(), want)
	}
	if alt.Label() != res.Alternatives[res.SkylineIdx[0]].Label() {
		t.Errorf("application labels did not round-trip: %q", alt.Label())
	}

	// Intent alone: no result until the restored session explores, and the
	// exploration re-derives the original result byte for byte.
	fromIntent, err := RestoreSession(s.Planner(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if fromIntent.LastResult() != nil {
		t.Fatal("intent snapshot restored with a result")
	}
	rederived, err := fromIntent.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultJSON(t, res), resultJSON(t, rederived); !bytes.Equal(a, b) {
		t.Errorf("Restore → Explore did not reproduce the result:\n  orig %s\nagain %s", a, b)
	}
}

// TestSnapshotDuringExploration verifies Snapshot is safe and coherent while
// a run is in flight (it sees the pre-run state).
func TestSnapshotDuringExploration(t *testing.T) {
	s := newTestSession(t)
	done := make(chan error, 1)
	go func() {
		_, err := s.Explore()
		done <- err
	}()
	if _, err := s.Snapshot(); err != nil {
		t.Errorf("snapshot during exploration: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	s := newTestSession(t)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreSession(nil, nil); err == nil {
		t.Error("nil snapshot accepted")
	}

	future := *snap
	future.Version = SnapshotFormatVersion + 1
	if _, err := RestoreSession(nil, &future); err == nil {
		t.Error("future format version accepted")
	}

	noFlow := *snap
	noFlow.Flow = nil
	if _, err := RestoreSession(nil, &noFlow); err == nil {
		t.Error("missing flow accepted")
	}

	badFlow := *snap
	badFlow.Flow = json.RawMessage(`{"name":"x","nodes":[{"id":"a","kind":"nonsense"}]}`)
	if _, err := RestoreSession(nil, &badFlow); err == nil {
		t.Error("undecodable flow accepted")
	}
}

func TestRestoreRejectsCorruptResult(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Explore(); err != nil {
		t.Fatal(err)
	}
	// A legacy snapshot: the result embedded explicitly, as earlier builds
	// wrote it.
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Last, err = SnapshotResult(s.LastResult()); err != nil {
		t.Fatal(err)
	}
	snap.Last.SkylineIdx = append(snap.Last.SkylineIdx, len(snap.Last.Alternatives)+7)
	if _, err := RestoreSession(nil, snap); err == nil {
		t.Error("out-of-range skyline index accepted")
	}
}
