package genjob

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sync"
)

// Log is an append-only JSON-lines file that survives a crash: each Append
// writes one line and fsyncs it before returning, so a record either
// survives whole or is left as a torn last line, which replay hands to the
// reader to skip. The job manifest and the fleet coordinator's journal are
// both Logs, each with its own header and record types. Safe for
// concurrent use.
type Log struct {
	mu sync.Mutex
	f  *os.File
}

// OpenLog replays the log at path, then opens it for appending. It calls
// line on each non-blank line in order, with surrounding space trimmed;
// line must not keep the slice, and an error from it aborts the open. A
// missing or empty file is created holding header alone.
func OpenLog(path string, header any, line func([]byte) error) (*Log, error) {
	existing, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(existing))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if b := bytes.TrimSpace(sc.Bytes()); len(b) > 0 {
			if err := line(b); err != nil {
				return nil, err
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f}
	if len(existing) == 0 {
		if err := l.Append(header); err != nil {
			f.Close()
			return nil, err
		}
	}
	return l, nil
}

// Append marshals v as one line, writes it and fsyncs the file.
func (l *Log) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the file.
func (l *Log) Close() error { return l.f.Close() }
