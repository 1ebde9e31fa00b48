package ccprofd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is the daemon's durable job log: JSONL, one event per line,
// fsynced per event so an accepted job survives any crash after its 202
// reply. Replay is torn-line tolerant — a partial trailing line (the
// signature of a crash mid-append) is skipped, exactly like parsim
// checkpoints — and opening compacts the log to one entry per job via the
// same temp-file + fsync + atomic-rename dance, so the journal never
// grows without bound and a kill during compaction loses nothing.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
}

// journalEntry is one persisted event. "submit" carries the full job (a
// compacted journal is nothing but submits in their terminal states);
// "done"/"failed" update an earlier submit by ID.
type journalEntry struct {
	Ev       string `json:"ev"`
	Job      *Job   `json:"job,omitempty"`
	ID       string `json:"id,omitempty"`
	Artifact string `json:"artifact,omitempty"`
	Error    string `json:"error,omitempty"`
	FailKind string `json:"fail_kind,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
}

// journalTempPattern suffixes the in-progress compaction file.
const journalTempPattern = ".compact-*"

// ErrJournalClosed is returned by appends after Close; the caller keeps
// its in-memory state and the job simply re-runs on the next start.
var ErrJournalClosed = errors.New("ccprofd: journal closed")

// OpenJournal replays path, compacts it, reopens it for append, and
// returns the replayed jobs in submission order. Jobs that were queued or
// running when the previous process died come back as queued with Resumed
// set — the daemon re-enqueues them on Start.
func OpenJournal(path string) (*Journal, []*Job, error) {
	jobs, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}
	for _, j := range jobs {
		if j.State == StateRunning || j.State == StateQueued {
			j.State = StateQueued
			j.Resumed = true
		}
	}
	if err := compactJournal(path, jobs); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: f}, jobs, nil
}

// replayJournal loads every parsable event of a journal file. A missing
// file is an empty journal; malformed lines and updates for unknown IDs
// are skipped, not errors.
func replayJournal(path string) ([]*Job, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	byID := map[string]*Job{}
	var order []*Job
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue
		}
		switch e.Ev {
		case "submit":
			if e.Job == nil || e.Job.ID == "" {
				continue
			}
			j := *e.Job
			if prev, ok := byID[j.ID]; ok {
				*prev = j
				continue
			}
			cp := j
			byID[cp.ID] = &cp
			order = append(order, &cp)
		case "done":
			if j, ok := byID[e.ID]; ok {
				j.State = StateDone
				j.Artifact = e.Artifact
				j.Attempts = e.Attempts
				j.Error, j.FailKind = "", ""
			}
		case "failed":
			if j, ok := byID[e.ID]; ok {
				j.State = StateFailed
				j.Error = e.Error
				j.FailKind = e.FailKind
				j.Attempts = e.Attempts
			}
		}
	}
	return order, sc.Err()
}

// compactJournal atomically rewrites the journal as one submit entry per
// job in its current state. A kill mid-compaction leaves the old file
// intact; orphaned temps from an earlier kill are swept first.
func compactJournal(path string, jobs []*Job) error {
	if stale, err := filepath.Glob(path + journalTempPattern); err == nil {
		for _, p := range stale {
			os.Remove(p)
		}
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+journalTempPattern)
	if err != nil {
		return err
	}
	discard := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	for _, j := range jobs {
		line, err := encodeJournalEntry(journalEntry{Ev: "submit", Job: j})
		if err != nil {
			discard()
			return err
		}
		if _, err := tmp.Write(line); err != nil {
			discard()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		discard()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncStoreDir(dir)
	return nil
}

// encodeJournalEntry renders one JSONL event plus newline.
func encodeJournalEntry(e journalEntry) ([]byte, error) {
	line, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("ccprofd: encoding journal event: %w", err)
	}
	return append(line, '\n'), nil
}

// append writes one event and fsyncs it. Events are per job-transition
// (not per sample), so a syscall each is cheap for what it buys.
func (j *Journal) append(e journalEntry) error {
	line, err := encodeJournalEntry(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

// Submit records an accepted job. It must succeed before the job is
// acknowledged: the 202 reply is the durability promise.
func (j *Journal) Submit(job *Job) error {
	return j.append(journalEntry{Ev: "submit", Job: job})
}

// Done records a completed job and its artifact hash.
func (j *Journal) Done(id, artifact string, attempts int) error {
	return j.append(journalEntry{Ev: "done", ID: id, Artifact: artifact, Attempts: attempts})
}

// Failed records a job that exhausted its attempts.
func (j *Journal) Failed(id, errMsg, kind string, attempts int) error {
	return j.append(journalEntry{Ev: "failed", ID: id, Error: errMsg, FailKind: kind, Attempts: attempts})
}

// Close releases the file; later appends return ErrJournalClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	j.f.Sync()
	return j.f.Close()
}
