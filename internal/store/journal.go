package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Journal records accepted jobs: the piece that makes "accepted" mean
// "durable". Each accepted job is one <sha256(ID)>.pending file holding
// its JournalRecord, landed by writeAtomic (fsync'd temp file, rename,
// fsync'd directory) before the server acknowledges it, and removed when
// the result is in the store. A SIGKILL'd process therefore reboots,
// lists the pending files, and finds exactly the jobs that were accepted
// but not yet completed — zero accepted jobs are ever lost. A rename
// cannot tear, so every pending file on disk is whole.
type Journal struct {
	dir string

	mu      sync.Mutex
	pending map[string]bool // IDs with a pending file on disk
	err     error           // first accept failure (or Close), latched
}

// JournalRecord is one accepted job: an opaque request payload under a
// caller-chosen ID (the serve layer uses its cache keys, so replaying a
// record that did complete is a harmless cache hit).
type JournalRecord struct {
	// ID identifies the job; its hash names the pending file.
	ID string `json:"id"`
	// Config is the accepted request payload, replayed verbatim on boot.
	Config json.RawMessage `json:"config"`
	// Priority is the accepted submission's priority.
	Priority int `json:"priority,omitempty"`
}

// OpenJournal opens (creating if needed) the journal in dir and returns
// its pending records in file-name order — the jobs a recovering server
// must resubmit. That is not acceptance order; each record keeps its
// priority. A pending file that does not decode, or whose name is not
// its ID's hash, was damaged outside the journal and fails the open,
// naming the file.
func OpenJournal(dir string) (*Journal, []JournalRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: journal: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.pending"))
	if err != nil {
		return nil, nil, fmt.Errorf("store: journal: %w", err)
	}
	j := &Journal{dir: dir, pending: make(map[string]bool, len(names))}
	out := make([]JournalRecord, 0, len(names))
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, fmt.Errorf("store: journal: %w", err)
		}
		var rec JournalRecord
		if err := json.Unmarshal(data, &rec); err != nil || filepath.Base(name) != pendingName(rec.ID) {
			return nil, nil, fmt.Errorf("store: journal: %s is not a pending record for its name", name)
		}
		j.pending[rec.ID] = true
		out = append(out, rec)
	}
	return j, out, nil
}

// pendingName is the file name of a pending job's record: the content
// address of its ID, as a result's file name is that of its key.
func pendingName(id string) string {
	return strings.TrimSuffix(fileName(id), ".json") + ".pending"
}

// Accept records an accepted job durably: its pending file and the
// directory entry naming it are fsync'd before Accept returns, so an
// acknowledgment sent after it can never refer to a job a crash would
// forget. An ID already pending is a no-op (a coalesced resubmission).
// The first failure latches, and every later Accept returns it.
func (j *Journal) Accept(rec JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.pending[rec.ID] {
		return nil
	}
	data, err := json.Marshal(rec)
	if err == nil {
		err = writeAtomic(j.dir, pendingName(rec.ID), data)
	}
	if err != nil {
		j.err = fmt.Errorf("store: journal degraded: %w", err)
		return j.err
	}
	j.pending[rec.ID] = true
	return nil
}

// Done clears a completed job's pending file. Best-effort by design: a
// removal that is lost only means the job is replayed on the next boot,
// where it resolves as a cache hit — degraded, never wrong.
func (j *Journal) Done(id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.pending[id] {
		return
	}
	delete(j.pending, id)
	_ = os.Remove(filepath.Join(j.dir, pendingName(id)))
}

// Pending reports the number of accepted-but-not-completed jobs.
func (j *Journal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// Err reports the first accept failure, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close ends accepting: every later Accept fails. Done still clears the
// jobs that were accepted before it.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = fmt.Errorf("store: journal degraded: %w", os.ErrClosed)
	}
	return nil
}
