package genjob

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"slap/internal/dataset"
)

// Shard files are self-verifying: a fixed header carries the shard id,
// the payload length and the payload's SHA-256, so truncation, bit flips
// and cross-job mixups are all detected before a byte of payload is
// trusted. The payload is the gob-encoded shardPayload.
const (
	shardMagic      = "SLAPSHD1"
	shardHeaderSize = len(shardMagic) + 4 + 8 + sha256.Size
	// maxShardPayload bounds a single shard file so a corrupt length
	// field cannot drive an absurd allocation.
	maxShardPayload = 1 << 31
)

// shardPayload is the persisted result of one executed shard.
type shardPayload struct {
	Spec        Spec
	Fingerprint string
	Outcomes    []dataset.MapOutcome
}

// shardFileName names shard i's file within the job directory.
func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.bin", i) }

// encodeShard serialises a shard payload and returns (bytes, sha256 hex).
func encodeShard(p *shardPayload) ([]byte, string, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, "", fmt.Errorf("genjob: encoding shard %d: %w", p.Spec.Shard, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:]), nil
}

// frameShard prepends the self-verifying header to an encoded payload,
// producing the exact byte sequence a shard file holds. The same frame
// travels over the network in fleet mode, so a remotely executed shard is
// verified and persisted by the same code path as a local one.
func frameShard(shard int, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	buf.Grow(shardHeaderSize + len(payload))
	buf.WriteString(shardMagic)
	binary.Write(&buf, binary.BigEndian, uint32(shard))
	binary.Write(&buf, binary.BigEndian, uint64(len(payload)))
	buf.Write(sum[:])
	buf.Write(payload)
	return buf.Bytes()
}

// writeShardFile persists a verified shard frame. The write is atomic
// (temp file + rename) so a crash mid-write leaves a stray .tmp file,
// never a plausible-looking half shard. FaultTruncate and FaultCorrupt
// are the fault-injection paths: a truncated write simulates a kill
// mid-write or torn copy, a corrupted one flips a payload byte under an
// intact header so only the SHA-256 self-check can catch it.
func writeShardFile(path string, framed []byte, fault FaultKind) error {
	payload := len(framed) - shardHeaderSize
	switch fault {
	case FaultTruncate:
		if cut := payload / 2; cut > 0 {
			return os.WriteFile(path, framed[:shardHeaderSize+cut], 0o644)
		}
	case FaultCorrupt:
		if payload > 0 {
			framed[shardHeaderSize+payload/3] ^= 0x40
			return os.WriteFile(path, framed, 0o644)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(framed); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// parseShardBytes verifies and decodes framed shard bytes: magic, shard id,
// length, payload checksum, gob decode, and spec/fingerprint agreement.
// Any mismatch is an error — a shard that fails here is re-run, never
// merged. name labels error messages (a file path or a remote worker).
func parseShardBytes(b []byte, name string, want Spec, fingerprint string) (*shardPayload, string, error) {
	if len(b) < shardHeaderSize {
		return nil, "", fmt.Errorf("genjob: %s: truncated header (%d bytes)", name, len(b))
	}
	if string(b[:len(shardMagic)]) != shardMagic {
		return nil, "", fmt.Errorf("genjob: %s: bad magic", name)
	}
	off := len(shardMagic)
	gotShard := binary.BigEndian.Uint32(b[off:])
	off += 4
	plen := binary.BigEndian.Uint64(b[off:])
	off += 8
	wantSum := b[off : off+sha256.Size]
	off += sha256.Size
	if gotShard != uint32(want.Shard) {
		return nil, "", fmt.Errorf("genjob: %s: holds shard %d, want %d", name, gotShard, want.Shard)
	}
	if plen > maxShardPayload {
		return nil, "", fmt.Errorf("genjob: %s: absurd payload length %d", name, plen)
	}
	payload := b[off:]
	if uint64(len(payload)) != plen {
		return nil, "", fmt.Errorf("genjob: %s: payload is %d bytes, header says %d (truncated or padded)",
			name, len(payload), plen)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], wantSum) {
		return nil, "", fmt.Errorf("genjob: %s: payload checksum mismatch", name)
	}
	var p shardPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return nil, "", fmt.Errorf("genjob: %s: decoding payload: %w", name, err)
	}
	if p.Spec != want {
		return nil, "", fmt.Errorf("genjob: %s: spec %+v, want %+v", name, p.Spec, want)
	}
	if p.Fingerprint != fingerprint {
		return nil, "", fmt.Errorf("genjob: %s: config fingerprint mismatch (different job?)", name)
	}
	if n := len(p.Outcomes); n != want.End-want.Start {
		return nil, "", fmt.Errorf("genjob: %s: %d outcomes, want %d", name, n, want.End-want.Start)
	}
	return &p, hex.EncodeToString(sum[:]), nil
}

// readShardFile loads and fully verifies one shard file.
func readShardFile(path string, want Spec, fingerprint string) (*shardPayload, string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	return parseShardBytes(b, path, want, fingerprint)
}

// ---------------------------------------------------------------------------
// Manifest

// manifestName is the append-only Log of a job directory.
// Line 1 is the job header; every later line is a shard lifecycle entry.
// The last entry for a shard wins, so appending is the only write mode a
// crashed run ever needed to get resume right.
const manifestName = "manifest.jsonl"

// manifestHeader pins a job directory to one exact sweep configuration.
type manifestHeader struct {
	Job         string `json:"job"` // format tag, "slap-genjob/1"
	Fingerprint string `json:"fingerprint"`
	Shards      int    `json:"shards"`
}

const manifestJobTag = "slap-genjob/1"

// manifestEntry records one shard outcome.
type manifestEntry struct {
	Shard    int    `json:"shard"`
	Status   string `json:"status"` // "done" or "failed"
	File     string `json:"file,omitempty"`
	SHA      string `json:"sha256,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Err      string `json:"err,omitempty"`
}

// manifest is the open log plus its replayed state.
type manifest struct {
	log     *Log
	mu      sync.Mutex
	entries map[int]manifestEntry // last entry per shard
}

// openManifest opens (or creates) the log under dir, replays it, and
// checks it belongs to this job. resume gates reuse: without it an
// existing manifest is an error, so two different sweeps cannot silently
// interleave in one directory.
func openManifest(dir, fingerprint string, shards int, resume bool) (*manifest, error) {
	path := filepath.Join(dir, manifestName)
	if _, err := os.Stat(path); err == nil && !resume {
		return nil, fmt.Errorf("genjob: %s already holds a run; enable resume or use a fresh directory", dir)
	}
	entries := make(map[int]manifestEntry)
	first := true
	log, err := OpenLog(path, manifestHeader{Job: manifestJobTag, Fingerprint: fingerprint, Shards: shards}, func(line []byte) error {
		if first {
			first = false
			var h manifestHeader
			if err := json.Unmarshal(line, &h); err != nil || h.Job != manifestJobTag {
				return fmt.Errorf("genjob: %s: not a genjob manifest", path)
			}
			if h.Fingerprint != fingerprint {
				return fmt.Errorf("genjob: %s was written by a different sweep config; refusing to resume", path)
			}
			if h.Shards != shards {
				return fmt.Errorf("genjob: %s plans %d shards, this run plans %d", path, h.Shards, shards)
			}
			return nil
		}
		// A torn final line is exactly what a SIGKILL mid-append leaves
		// behind; the shard it described simply re-runs.
		var e manifestEntry
		if json.Unmarshal(line, &e) == nil {
			entries[e.Shard] = e
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &manifest{log: log, entries: entries}, nil
}

// record appends a shard entry and updates the replayed state.
func (m *manifest) record(e manifestEntry) error {
	if err := m.log.Append(e); err != nil {
		return err
	}
	m.mu.Lock()
	m.entries[e.Shard] = e
	m.mu.Unlock()
	return nil
}

// entry returns the last recorded entry for a shard.
func (m *manifest) entry(shard int) (manifestEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[shard]
	return e, ok
}

func (m *manifest) close() error { return m.log.Close() }

// fingerprintConfig canonically hashes the sweep parameters that determine
// the dataset bytes, so a resumed run cannot silently mix shards from two
// different sweeps. Workers and failure knobs are deliberately excluded:
// they change scheduling, not results.
func fingerprintConfig(cfg dataset.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "seed=%d|maps=%d|classes=%d|limit=%d|metric=%s|circuits=%d",
		cfg.Seed, cfg.MapsPerCircuit, cfg.Classes, cfg.ShuffleLimit, cfg.Metric, len(cfg.Circuits))
	for _, g := range cfg.Circuits {
		fmt.Fprintf(h, "|%s/%d/%d/%d", g.Name, g.NumNodes(), g.NumPIs(), g.NumPOs())
	}
	return hex.EncodeToString(h.Sum(nil))
}
