package session

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// JSONL is the one JSON-lines persister: the recorder's session (phase
// events and sample rows) and the trace plane's artifact are each a
// JSONL of their own row type. Every Write is one marshalled row and its newline handed
// to the OS in a single write before it returns — the crash-safety
// contract: a run that dies keeps every row written so far, and never a
// torn one. Safe for concurrent use.
type JSONL struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
}

// CreateJSONL creates (truncating) the file at path.
func CreateJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("session: jsonl: %w", err)
	}
	return &JSONL{f: f}, nil
}

// Write appends v as one JSON line.
func (j *JSONL) Write(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("session: jsonl %s: %w", j.f.Name(), err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(b, '\n')); err != nil { // the *PathError names the file
		return fmt.Errorf("session: jsonl: %w", err)
	}
	return nil
}

// Close closes the file. Idempotent; a Write after it is an error.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}
