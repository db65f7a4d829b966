// Package rebalance is the migration control plane over the mirrored
// striped data plane: it moves the data of the mirror member its caller
// names off a suspect or dead target onto a spare while traffic keeps
// flowing, journaling every step so an interrupted migration resumes or
// rolls back cleanly on restart. The data-plane mechanics (member states, write fan-out
// during rebuild, chunk sync ordering) live in nvmeof.StripedPlane;
// this package owns the policy and the durability of the process:
// which member moves, when, onto what, and how a half-done move is
// finished after a crash.
//
// See docs/replication.md for the migration state machine and the
// no-lost-byte argument.
package rebalance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// State is a migration's position in the state machine:
//
//	draining → copying → cutover → done
//	        ↘ rolledback (no spare reachable)
//
// Each transition is journaled before its effects are considered
// durable, so the journal's last record per migration tells recovery
// exactly how far the move got.
type State string

const (
	// StateDraining: the member is marked down; writes and reads have
	// stopped targeting it. No spare is attached yet.
	StateDraining State = "draining"
	// StateCopying: a spare is attached (rebuilding) and chunks are
	// being swept onto it from a live sibling.
	StateCopying State = "copying"
	// StateCutover: the sweep finished; the spare is about to be (or
	// just was) promoted to live. A crash here re-sweeps — promotion
	// without a journaled "done" is not trusted.
	StateCutover State = "cutover"
	// StateDone: the spare is live; the migration is complete. Terminal.
	StateDone State = "done"
	// StateRolledBack: the migration was abandoned (no spare, spare
	// unreachable at recovery); the member stays down. Terminal.
	StateRolledBack State = "rolledback"
)

// Terminal reports whether the state ends a migration.
func (s State) Terminal() bool { return s == StateDone || s == StateRolledBack }

// Record is one journaled migration transition. Records are JSONL,
// append-only; the last record per migration ID wins.
type Record struct {
	// Migration is the move's stable ID, unique within the journal.
	Migration int64 `json:"migration"`
	// Child is the plane member index being moved; Group its mirror
	// group.
	Child int `json:"child"`
	Group int `json:"group"`
	// State is the transition being recorded.
	State State `json:"state"`
	// Spare is the durable label of the replacement plane (set from
	// copying on), the key recovery re-attaches by.
	Spare string `json:"spare,omitempty"`
	// Copied is the cumulative bytes swept when this record was
	// written (progress checkpoint; recovery re-sweeps from zero
	// regardless, the sweep is idempotent).
	Copied int64 `json:"copied,omitempty"`
	// Reason is why the migration started ("admin", "crash-test").
	Reason string `json:"reason,omitempty"`
}

// Journal is the append-only JSONL migration log. Every append is
// synced before returning: a journaled transition survives the
// process. Concurrent appenders are serialized.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// last holds the replayed tail state: the most recent record per
	// migration ID, maintained across appends.
	last   map[int64]Record
	nextID int64
}

// OpenJournal opens (creating if needed) the journal at path and
// replays it. A torn trailing line — a crash mid-append left bytes
// with no terminating newline — is truncated away, not fatal: the
// transition it recorded never happened as far as recovery is
// concerned, which is exactly the pre-append state, and truncating
// keeps the next Append from being glued onto the torn bytes. Only
// the final, newline-less line can legitimately be torn; a
// newline-terminated line that fails to parse is corruption and
// surfaces as an error rather than silently dropping every record
// after it.
func OpenJournal(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("rebalance: journal dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("rebalance: open journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("rebalance: read journal: %w", err)
	}
	j := &Journal{path: path, f: f, last: make(map[int64]Record), nextID: 1}
	// good is the byte offset just past the last fully-parsed,
	// newline-terminated record — where appends resume.
	good := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Torn tail: truncated below so the next Append starts on
			// a clean line boundary.
			break
		}
		line := data[off : off+nl]
		lineStart := off
		off += nl + 1
		if len(bytes.TrimSpace(line)) == 0 {
			good = off
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			f.Close()
			return nil, fmt.Errorf("rebalance: journal %s: corrupt record at byte %d: %w", path, lineStart, err)
		}
		j.last[r.Migration] = r
		if r.Migration >= j.nextID {
			j.nextID = r.Migration + 1
		}
		good = off
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("rebalance: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("rebalance: seek journal: %w", err)
	}
	return j, nil
}

// Path returns the journal file's path.
func (j *Journal) Path() string { return j.path }

// NextID allocates a migration ID: one past the highest ever journaled,
// so IDs never collide across restarts.
func (j *Journal) NextID() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	id := j.nextID
	j.nextID++
	return id
}

// Append journals one transition and syncs it to disk. A record for a
// migration already in a terminal state is rejected — the
// one-done-record-per-migration invariant the crash tests pin (a
// double "done" would double-charge the move).
func (j *Journal) Append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if prev, ok := j.last[r.Migration]; ok && prev.State.Terminal() {
		return fmt.Errorf("rebalance: migration %d already %s, rejecting %s", r.Migration, prev.State, r.State)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("rebalance: encode record: %w", err)
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("rebalance: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("rebalance: sync journal: %w", err)
	}
	j.last[r.Migration] = r
	return nil
}

// Open returns the non-terminal tail records — the migrations recovery
// must finish or roll back — in migration-ID order.
func (j *Journal) Open() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, 0, len(j.last))
	for _, r := range j.last {
		if !r.State.Terminal() {
			out = append(out, r)
		}
	}
	sortRecords(out)
	return out
}

// All returns the tail record of every journaled migration, in
// migration-ID order.
func (j *Journal) All() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, 0, len(j.last))
	for _, r := range j.last {
		out = append(out, r)
	}
	sortRecords(out)
	return out
}

func sortRecords(rs []Record) {
	for i := 1; i < len(rs); i++ {
		for k := i; k > 0 && rs[k].Migration < rs[k-1].Migration; k-- {
			rs[k], rs[k-1] = rs[k-1], rs[k]
		}
	}
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
