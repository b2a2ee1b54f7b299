package server

import (
	"database/sql"
	"errors"
	"fmt"
	"time"

	"poiesis/internal/sqlite"
)

// SQLBackend is the networked SessionBackend: session records live in a
// single SQL table reached through database/sql, so any driver speaking the
// small dialect below (a real sqlite build, PostgreSQL, MySQL) can hold the
// session tier. The default driver is the embedded dependency-free
// sqlite.DriverName engine, which makes "sql" usable out of the box with a
// file or in-memory DSN.
//
// Schema: one row per session, the encoded record as a blob next to the
// columns queries filter on —
//
//	poiesis_sessions(id TEXT PRIMARY KEY, version INTEGER,
//	                 last_used INTEGER /* UnixNano */, record BLOB)
//
// The version column mirrors the record's format version for operator
// visibility; decode still happens via decodeRecord, with the same
// skip-and-log policy as the disk backend for rows written by a future
// format. last_used is duplicated out of the blob so Sweep is one indexed
// range DELETE instead of a full decode pass.
type SQLBackend struct {
	db *sql.DB
	// Logf reports rows skipped during List; nil uses the log package
	// default. server.New derives a logging view via WithLogf instead of
	// writing here.
	Logf func(format string, args ...any)

	// recordSize observes each encoded record's size; nil skips it. Set on
	// a view by withRecordSizes.
	recordSize func(bytes int64)
}

// WithLogf returns a view of the same backend — shared connection pool —
// whose warnings go to logf. The receiver is not modified, so a backend
// shared between two servers never races on Logf.
func (b *SQLBackend) WithLogf(logf func(format string, args ...any)) *SQLBackend {
	nb := *b
	nb.Logf = logf
	return &nb
}

func (b *SQLBackend) withRecordSizes(observe func(bytes int64)) SessionBackend {
	nb := *b
	nb.recordSize = observe
	return &nb
}

const sqlSessionsSchema = `CREATE TABLE IF NOT EXISTS poiesis_sessions (` +
	`id TEXT PRIMARY KEY, version INTEGER, last_used INTEGER, record BLOB)`

// NewSQLBackend opens (creating the table if needed) a SQL session store.
// driverName "" selects the embedded engine; dsn is driver-specific — for
// the embedded engine, ":memory:" or a log-file path.
func NewSQLBackend(driverName, dsn string) (*SQLBackend, error) {
	if driverName == "" {
		driverName = sqlite.DriverName
	}
	db, err := sql.Open(driverName, dsn)
	if err != nil {
		return nil, fmt.Errorf("server: opening SQL session store: %w", err)
	}
	// One writer plus background sweeps is the store's whole concurrency; a
	// small pool keeps the embedded engine's connector semantics simple.
	db.SetMaxOpenConns(4)
	if _, err := db.Exec(sqlSessionsSchema); err != nil {
		db.Close()
		return nil, fmt.Errorf("server: preparing SQL session table: %w", err)
	}
	return &SQLBackend{db: db}, nil
}

func (b *SQLBackend) Name() string { return "sql" }

// Close releases the database pool (and, for the embedded engine, flushes
// and closes the backing log file).
func (b *SQLBackend) Close() error { return b.db.Close() }

func (b *SQLBackend) logf(format string, args ...any) {
	if b.Logf != nil {
		b.Logf(format, args...)
		return
	}
	// No configured sink: render through the shared structured fallback so
	// backend warnings match the server's "msg key=val" line shape.
	defaultLogf(format, args...)
}

func (b *SQLBackend) Put(rec *SessionRecord) error {
	if err := validRecordID(rec.ID); err != nil {
		return err
	}
	blob, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if b.recordSize != nil {
		b.recordSize(int64(len(blob)))
	}
	_, err = b.db.Exec(`INSERT OR REPLACE INTO poiesis_sessions (id, version, last_used, record) VALUES (?, ?, ?, ?)`,
		rec.ID, int64(SessionRecordVersion), rec.LastUsed.UnixNano(), blob)
	if err != nil {
		return fmt.Errorf("server: writing session row %s: %w", rec.ID, err)
	}
	return nil
}

func (b *SQLBackend) Get(id string) (*SessionRecord, error) {
	if err := validRecordID(id); err != nil {
		return nil, err
	}
	var blob []byte
	err := b.db.QueryRow(`SELECT record FROM poiesis_sessions WHERE id = ?`, id).Scan(&blob)
	if errors.Is(err, sql.ErrNoRows) {
		return nil, ErrRecordNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("server: reading session row %s: %w", id, err)
	}
	rec, err := decodeRecord(blob)
	if err != nil {
		return nil, err
	}
	if rec.ID != id {
		return nil, fmt.Errorf("server: session row %s records ID %s", id, rec.ID)
	}
	return rec, nil
}

func (b *SQLBackend) Delete(id string) error {
	if err := validRecordID(id); err != nil {
		return err
	}
	if _, err := b.db.Exec(`DELETE FROM poiesis_sessions WHERE id = ?`, id); err != nil {
		return fmt.Errorf("server: deleting session row %s: %w", id, err)
	}
	return nil
}

// List loads every decodable row ordered by ID. Undecodable rows — written
// by a future format version or torn by an operator's manual edit — are
// skipped with a logged warning, same as the disk backend, so one bad row
// cannot block a restart.
func (b *SQLBackend) List() ([]*SessionRecord, error) {
	rows, err := b.db.Query(`SELECT id, record FROM poiesis_sessions ORDER BY id`)
	if err != nil {
		return nil, fmt.Errorf("server: listing session rows: %w", err)
	}
	defer rows.Close()
	var out []*SessionRecord
	for rows.Next() {
		var id string
		var blob []byte
		if err := rows.Scan(&id, &blob); err != nil {
			return nil, fmt.Errorf("server: scanning session row: %w", err)
		}
		rec, err := decodeRecord(blob)
		if err == nil && rec.ID != id {
			err = fmt.Errorf("row keyed %s records ID %s", id, rec.ID)
		}
		if err != nil {
			b.logf("server: session store: skipping row %s: %v", id, err)
			continue
		}
		out = append(out, rec)
	}
	if err := rows.Err(); err != nil {
		return nil, fmt.Errorf("server: listing session rows: %w", err)
	}
	return out, nil
}

// Sweep deletes every row whose last_used column is strictly before cutoff
// and reports the affected IDs, without decoding any records.
func (b *SQLBackend) Sweep(cutoff time.Time) ([]string, error) {
	rows, err := b.db.Query(`SELECT id FROM poiesis_sessions WHERE last_used < ? ORDER BY id`, cutoff.UnixNano())
	if err != nil {
		return nil, fmt.Errorf("server: sweeping session rows: %w", err)
	}
	var removed []string
	for rows.Next() {
		var id string
		if err := rows.Scan(&id); err != nil {
			rows.Close()
			return nil, fmt.Errorf("server: sweeping session rows: %w", err)
		}
		removed = append(removed, id)
	}
	if err := rows.Close(); err != nil {
		return nil, fmt.Errorf("server: sweeping session rows: %w", err)
	}
	if err := rows.Err(); err != nil {
		return nil, fmt.Errorf("server: sweeping session rows: %w", err)
	}
	if len(removed) == 0 {
		return nil, nil
	}
	if _, err := b.db.Exec(`DELETE FROM poiesis_sessions WHERE last_used < ?`, cutoff.UnixNano()); err != nil {
		return nil, fmt.Errorf("server: sweeping session rows: %w", err)
	}
	return removed, nil
}
