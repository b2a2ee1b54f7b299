package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"poiesis/internal/config"
	"poiesis/internal/core"
)

// SessionRecord is the unit of session persistence: the service-level
// metadata (identity, liveness, plan count, the creation config document the
// planner is rebuilt from) wrapped around the core.SessionSnapshot that
// carries the analyst's actual state. A record holds intent, not results:
// the last planning result lives only in the plan cache, and Plan names it
// so a restored session can re-derive it on first access. Records are
// immutable once handed to a backend — every write-through builds a fresh
// record — which is what lets backends hand them out without copying.
//
// Records written by earlier builds carry the result itself in
// Session.Last; they still restore, eagerly, with that result.
type SessionRecord struct {
	Version  int                   `json:"version"`
	ID       string                `json:"id"`
	Name     string                `json:"name,omitempty"`
	Created  time.Time             `json:"created"`
	LastUsed time.Time             `json:"lastUsed"`
	Plans    int                   `json:"plans,omitempty"`
	Config   *config.Document      `json:"config,omitempty"`
	Session  *core.SessionSnapshot `json:"session"`
	Plan     *PlanIntent           `json:"plan,omitempty"`
}

// PlanIntent names a session's last planning result without carrying it:
// the plan-cache key the result is stored under and, when the plan request
// brought its own configuration document, that document (nil when the plan
// used the session's creation config). Planning is deterministic in the
// key's inputs, so the result can always be re-derived — from the local
// cache, the key owner's cache, or a re-plan. Absent before the first plan
// and after a select.
type PlanIntent struct {
	Key    string           `json:"key"`
	Config *config.Document `json:"config,omitempty"`
}

// ErrRecordNotFound is returned by SessionBackend.Get for unknown IDs.
var ErrRecordNotFound = errors.New("server: session record not found")

// SessionBackend is the pluggable persistence layer of the session registry.
// The server keeps live sessions in memory for fast reads and writes a fresh
// record through to the backend on every state-changing operation (create,
// plan completion, select, delete); at startup it restores all records the
// backend still holds. Implementations must be safe for concurrent use.
//
// The service assumes a single writer per backend: two server processes
// sharing one disk directory would overwrite each other's records. Sharding
// sessions across replicas by ID (each ID owned by exactly one process)
// preserves the single-writer property.
type SessionBackend interface {
	// Put stores rec under rec.ID, replacing any previous record.
	Put(rec *SessionRecord) error
	// Get returns the record for id, or ErrRecordNotFound.
	Get(id string) (*SessionRecord, error)
	// Delete removes the record for id; deleting an absent id is not an
	// error (eviction and explicit deletion may race benignly).
	Delete(id string) error
	// List returns every stored record, sorted by ID. Backends skip records
	// they cannot decode (reporting them through their own logging) rather
	// than failing the whole listing.
	List() ([]*SessionRecord, error)
	// Sweep removes records last used before cutoff and returns their IDs —
	// the startup path for purging sessions that expired while the service
	// was down.
	Sweep(cutoff time.Time) ([]string, error)
	// Name identifies the backend in stats and logs ("memory", "disk").
	Name() string
}

// memoryBackend is the in-process SessionBackend: the pre-existing in-memory
// session map, now behind the backend interface. Records are stored as the
// pointers Put received — no JSON encoding — because records are immutable
// by contract. Records hold intent (flow, binding, history, plan key), not
// results, so a write-through costs the same small record on every backend
// and this one stays a drop-in for the encoding ones. Serialization fidelity
// is covered by the disk and SQL backends' parameterized suites, which store
// real bytes.
type memoryBackend struct {
	mu sync.RWMutex
	m  map[string]*SessionRecord
}

// NewMemoryBackend returns the in-memory SessionBackend (the default).
// Records do not survive the process; use NewDiskBackend for durability.
func NewMemoryBackend() SessionBackend {
	return &memoryBackend{m: map[string]*SessionRecord{}}
}

func (b *memoryBackend) Name() string { return "memory" }

func (b *memoryBackend) Put(rec *SessionRecord) error {
	if rec.ID == "" {
		return errors.New("server: session record without ID")
	}
	b.mu.Lock()
	b.m[rec.ID] = rec
	b.mu.Unlock()
	return nil
}

func (b *memoryBackend) Get(id string) (*SessionRecord, error) {
	b.mu.RLock()
	rec, ok := b.m[id]
	b.mu.RUnlock()
	if !ok {
		return nil, ErrRecordNotFound
	}
	return rec, nil
}

func (b *memoryBackend) Delete(id string) error {
	b.mu.Lock()
	delete(b.m, id)
	b.mu.Unlock()
	return nil
}

func (b *memoryBackend) List() ([]*SessionRecord, error) {
	b.mu.RLock()
	out := make([]*SessionRecord, 0, len(b.m))
	for _, rec := range b.m {
		out = append(out, rec)
	}
	b.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (b *memoryBackend) Sweep(cutoff time.Time) ([]string, error) {
	var removed []string
	b.mu.Lock()
	for id, rec := range b.m {
		if rec.LastUsed.Before(cutoff) {
			delete(b.m, id)
			removed = append(removed, id)
		}
	}
	b.mu.Unlock()
	sort.Strings(removed)
	return removed, nil
}

// encodeRecord serializes a record for storage, stamping the current format
// version.
func encodeRecord(rec *SessionRecord) ([]byte, error) {
	if rec.ID == "" {
		return nil, errors.New("server: session record without ID")
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("server: encoding session record %s: %w", rec.ID, err)
	}
	return blob, nil
}

// recordSizer is implemented by the backends that store records as encoded
// bytes (disk, SQL). New hands them the observer of each encoded record's
// size, the poiesis_session_record_bytes histogram; like WithLogf, the
// method returns a view and leaves the receiver untouched.
type recordSizer interface {
	withRecordSizes(observe func(bytes int64)) SessionBackend
}

// decodeRecord parses a stored record, rejecting formats newer than this
// build understands (a downgraded binary must not half-load future records).
func decodeRecord(blob []byte) (*SessionRecord, error) {
	var rec SessionRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		return nil, fmt.Errorf("server: decoding session record: %w", err)
	}
	if rec.ID == "" {
		return nil, errors.New("server: session record without ID")
	}
	if rec.Version > SessionRecordVersion {
		return nil, fmt.Errorf("server: session record %s has format version %d (this build supports up to %d)",
			rec.ID, rec.Version, SessionRecordVersion)
	}
	return &rec, nil
}

// SessionRecordVersion is the current record format; it wraps (and moves in
// lockstep with) core.SnapshotFormatVersion. The Plan field is additive, so
// intent records and legacy result-carrying records share version 1.
const SessionRecordVersion = 1
