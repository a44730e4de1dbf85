package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// InstanceFeatures are the cheap, solver-independent features of one
// problem instance — the inputs of the adaptive auto policy the ledger
// feeds. Extracting them costs one pass over the instance arrays.
type InstanceFeatures struct {
	// Class is the problem class ("SINGLEPROC" or "MULTIPROC").
	Class string `json:"class"`
	// Tasks and Procs are the instance dimensions (n and p).
	Tasks int `json:"tasks"`
	Procs int `json:"procs"`
	// Edges is the number of assignment options: graph edges for
	// SINGLEPROC, configurations for MULTIPROC.
	Edges int `json:"edges"`
	// Density is Edges normalized by Tasks*Procs (how constrained the
	// eligibility structure is; 1 means fully dense).
	Density float64 `json:"density"`
	// WMin and WMax bound the positive weights; WSpread is WMax/WMin
	// (1 for unit or uniform weights).
	WMin    int64   `json:"w_min"`
	WMax    int64   `json:"w_max"`
	WSpread float64 `json:"w_spread"`
}

// SolveRecord is one line of the solve ledger: which instance
// (features + fingerprint), which algorithm ran, and what it cost and
// produced. Every bench and service solve appends one.
type SolveRecord struct {
	// Time is the record timestamp, RFC 3339.
	Time string `json:"time"`
	// Source identifies the producer ("bench", "service", "cli").
	Source string `json:"source"`
	// Fingerprint is the canonical instance fingerprint (may be empty
	// for producers that skip canonicalization).
	Fingerprint string `json:"fingerprint,omitempty"`

	InstanceFeatures

	// Algorithm is the registry name that produced the result
	// ("auto:<solver>" when the auto policy chose).
	Algorithm string `json:"algorithm"`
	// WallS is the solve wall time in seconds.
	WallS float64 `json:"wall_s"`
	// Nodes is the number of branch-and-bound nodes explored (0 for
	// pure heuristics).
	Nodes int64 `json:"nodes"`
	// Makespan is the reported objective value.
	Makespan int64 `json:"makespan"`
	// Bound is the best lower bound known at the end (0 if unknown).
	Bound int64 `json:"bound,omitempty"`
	// Status is the report status ("optimal", "heuristic", "truncated").
	Status string `json:"status"`
	// Trust is the certificate trust tier ("verified", "attested",
	// "heuristic"), empty when no certificate was issued.
	Trust string `json:"trust,omitempty"`
}

// Ledger is an append-only JSONL file of SolveRecords. Append is safe
// for concurrent use; each record is written with a single buffered
// write and flushed immediately, so a crash loses at most the record
// being written and concurrent appenders never interleave lines.
type Ledger struct {
	mu  sync.Mutex
	w   *bufio.Writer
	f   *os.File
	err error
}

// OpenLedger opens (creating or appending to) the JSONL ledger at path.
func OpenLedger(path string) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open ledger: %w", err)
	}
	return &Ledger{w: bufio.NewWriter(f), f: f}, nil
}

// NewLedger wraps an arbitrary writer (tests, in-memory collection).
func NewLedger(w io.Writer) *Ledger {
	return &Ledger{w: bufio.NewWriter(w)}
}

// Append writes one record as a JSON line. If the record has no
// timestamp yet, now is stamped in. Errors are sticky: after a failed
// write, subsequent Appends return the first error.
func (l *Ledger) Append(rec SolveRecord) error {
	if rec.Time == "" {
		rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("telemetry: marshal ledger record: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.w.Write(append(b, '\n')); err != nil {
		l.err = err
		return err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Close flushes and closes the underlying file (if any).
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.w.Flush()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
	}
	if l.err != nil {
		return l.err
	}
	return err
}

// ReadLedger parses a JSONL ledger stream back into records — the
// consumer side for analysis and the future adaptive policy. Blank
// lines are skipped; a malformed line is an error (the ledger is
// machine-written).
func ReadLedger(r io.Reader) ([]SolveRecord, error) {
	var recs []SolveRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec SolveRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("telemetry: ledger line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: read ledger: %w", err)
	}
	return recs, nil
}
