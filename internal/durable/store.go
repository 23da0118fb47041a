package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"sturgeon/internal/jsonio"
)

// ErrNoSnapshot is returned by LoadSnapshot when the store has never
// persisted a snapshot — the caller starts from its zero state and
// replays whatever records exist.
var ErrNoSnapshot = errors.New("durable: no snapshot")

// Store is the persistence surface a recoverable state machine needs.
// SaveSnapshot atomically persists a full-state document and resets the
// record log (the snapshot supersedes everything logged before it);
// Append durably adds one record; Records returns everything logged
// since the snapshot, with any torn tail already truncated away.
type Store interface {
	SaveSnapshot(v interface{}) error
	LoadSnapshot(v interface{}) error
	Append(record []byte) error
	Records() ([][]byte, error)
}

const (
	snapshotPrefix = "snapshot-"
	recordsPrefix  = "records-"
)

func snapshotName(gen uint64) string { return fmt.Sprintf("%s%08d.json", snapshotPrefix, gen) }
func recordsName(gen uint64) string  { return fmt.Sprintf("%s%08d.log", recordsPrefix, gen) }

// FileStore is the filesystem Store behind `sturgeond -state DIR`.
// Crash safety hinges on two mechanisms:
//
//   - Snapshots are written to a temp file, fsynced, renamed into place
//     and the directory fsynced — a crash leaves either the old snapshot
//     or the new one, never a half-written hybrid.
//   - Snapshot and log files are paired by a generation number in their
//     names (snapshot-00000003.json / records-00000003.log). A new
//     snapshot starts a new generation and its log starts empty, so a
//     crash between the snapshot rename and any cleanup can never cause
//     records from before the snapshot to replay on top of it.
//
// Open truncates the current log's torn tail (a record half-written at
// SIGKILL time fails its CRC) before appends resume. Every Append is
// fsynced: a report the coordinator acknowledged is a report recovery
// will replay.
type FileStore struct {
	mu  sync.Mutex
	dir string
	gen uint64
	log *os.File
}

// Open prepares a state directory (creating it if needed), adopts the
// newest snapshot generation found there, and opens that generation's
// record log for appending — truncating any torn tail first.
func Open(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	s := &FileStore{dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, ".json") {
			continue
		}
		raw := strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), ".json")
		gen, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			continue
		}
		if gen > s.gen {
			s.gen = gen
		}
	}
	if err := s.openLog(); err != nil {
		return nil, err
	}
	return s, nil
}

// openLog opens (creating if absent) the current generation's record
// log for appending, truncating any torn tail left by a crash.
func (s *FileStore) openLog() error {
	path := filepath.Join(s.dir, recordsName(s.gen))
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("durable: %w", err)
	}
	_, clean := DecodeRecords(data)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if clean < len(data) {
		if err := f.Truncate(int64(clean)); err != nil {
			f.Close()
			return fmt.Errorf("durable: truncating torn log tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(clean), 0); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	s.log = f
	return nil
}

// syncDir fsyncs the state directory so renames and creates are durable.
func (s *FileStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SaveSnapshot implements Store: validate and marshal v through jsonio,
// land it atomically as the next generation's snapshot, and start that
// generation's empty record log. Old generations are deleted last —
// a crash anywhere in between leaves at least one complete generation
// on disk, and recovery always adopts the newest.
func (s *FileStore) SaveSnapshot(v interface{}) error {
	data, err := jsonio.Marshal(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	next := s.gen + 1
	final := filepath.Join(s.dir, snapshotName(next))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}

	// The snapshot is durable; switch appends to the new generation's
	// empty log and clean up the superseded files (best effort — leftover
	// old generations are ignored by recovery and reaped by the next
	// snapshot).
	old := s.gen
	if s.log != nil {
		s.log.Close()
	}
	s.gen = next
	if err := s.openLog(); err != nil {
		return err
	}
	if old != next {
		os.Remove(filepath.Join(s.dir, snapshotName(old)))
		os.Remove(filepath.Join(s.dir, recordsName(old)))
	}
	return nil
}

// LoadSnapshot implements Store: parse and validate the current
// generation's snapshot into v. ErrNoSnapshot means the store has never
// snapshotted; any other error means the snapshot exists but is damaged
// or invalid — the caller's corruption-degradation ladder decides what
// happens next.
func (s *FileStore) LoadSnapshot(v interface{}) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen == 0 {
		return ErrNoSnapshot
	}
	return jsonio.ReadFile(filepath.Join(s.dir, snapshotName(s.gen)), v)
}

// Append implements Store: frame, write and fsync one record. The
// record is durable when Append returns.
func (s *FileStore) Append(record []byte) error {
	frame, err := EncodeRecord(record)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.log.Write(frame); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// Records implements Store: every record appended since the current
// snapshot, torn tail excluded.
func (s *FileStore) Records() ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(s.dir, recordsName(s.gen)))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("durable: %w", err)
	}
	recs, _ := DecodeRecords(data)
	return recs, nil
}

// Close releases the log file handle. The store is not usable after.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// MemStore is the in-memory Store twin: byte-faithful — snapshots
// round-trip through jsonio marshaling and records through the CRC
// framing, exactly like FileStore — but with no filesystem, which is
// what lets the deterministic fleet simulator rehearse coordinator
// crash/restart inside a seeded run. The Corrupt* methods let tests
// inflict the damage a real disk could.
type MemStore struct {
	mu   sync.Mutex
	snap []byte // marshaled snapshot; nil = never snapshotted
	log  []byte // framed records since the snapshot
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// SaveSnapshot implements Store.
func (s *MemStore) SaveSnapshot(v interface{}) error {
	data, err := jsonio.Marshal(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap = data
	s.log = nil
	return nil
}

// LoadSnapshot implements Store.
func (s *MemStore) LoadSnapshot(v interface{}) error {
	s.mu.Lock()
	data := append([]byte(nil), s.snap...)
	s.mu.Unlock()
	if data == nil {
		return ErrNoSnapshot
	}
	return jsonio.Unmarshal(data, v)
}

// Append implements Store.
func (s *MemStore) Append(record []byte) error {
	frame, err := EncodeRecord(record)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, frame...)
	return nil
}

// Records implements Store.
func (s *MemStore) Records() ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, _ := DecodeRecords(s.log)
	return recs, nil
}

// CorruptSnapshot overwrites the stored snapshot bytes — the test hook
// for the corrupt-snapshot rung of the degradation ladder.
func (s *MemStore) CorruptSnapshot(raw []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap = append([]byte(nil), raw...)
}

// TearLog truncates the framed log to n bytes, simulating a record
// half-written at SIGKILL time.
func (s *MemStore) TearLog(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n >= 0 && n < len(s.log) {
		s.log = s.log[:n]
	}
}

// CorruptLog XORs the byte at offset off, simulating silent media
// damage inside a framed record.
func (s *MemStore) CorruptLog(off int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off >= 0 && off < len(s.log) {
		s.log[off] ^= 0xff
	}
}

// LogLen returns the framed log size in bytes (test introspection).
func (s *MemStore) LogLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}

// sortedGenerations is a test helper listing the snapshot generations
// present in a state directory, ascending.
func sortedGenerations(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, ".json") {
			continue
		}
		raw := strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), ".json")
		gen, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}
