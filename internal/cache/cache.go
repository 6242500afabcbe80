// Package cache is FVN's persistent verification-result store: a
// versioned, append-only JSONL file with an in-memory index, shared by
// every request of a `fvn serve` process and — because the file is the
// source of truth — across processes and restarts. The verify pipeline
// keys proof results by theory fingerprint + structural goal hash + script
// hash (see internal/verify). Each part is a 64-bit hash of content, so
// every process derives the same key for the same obligation, and a hit
// means an obligation with the same content was recorded, barring a hash
// collision.
//
// Design constraints, in order:
//
//   - Corruption tolerance. A partially written trailing line (crash,
//     SIGKILL mid-append) or an arbitrarily mangled middle line must not
//     take the store down: bad lines are counted and skipped on load, and
//     the surviving entries stay usable.
//   - Append-only writes. Put appends one self-contained line with
//     O_APPEND semantics; there is no in-place rewrite, so readers of a
//     snapshot are never torn. Duplicate keys are resolved later-wins on
//     load, which also makes concurrent appenders safe (their lines
//     interleave whole, and either order is a valid history).
//   - Versioned format. The first line is a header naming the format
//     version; an unknown version quarantines the file (renamed aside)
//     rather than guessing, and the store restarts empty.
package cache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Version is the on-disk format version. Bump it when the line schema or
// key derivation changes incompatibly; old files are quarantined, not
// misread. Version 3 fingerprints a theory by folding its sorted item
// hashes; version 2 XORed them, so repeated items cancelled; version 1
// keyed goals by process-local intern ids.
const Version = 3

// header is the first line of every store file.
type header struct {
	Magic   string `json:"fvn_cache"`
	Version int    `json:"version"`
}

// entry is one appended record.
type entry struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
}

// Stats are the store's lifetime-of-process counters plus load outcomes.
type Stats struct {
	Entries int // distinct keys currently indexed
	Loaded  int // entries read from disk at Open (after later-wins dedup)
	Corrupt int // lines skipped at Open (malformed JSON or schema)
	Hits    int
	Misses  int
	Puts    int
}

// Store is a persistent key → JSON value map. All methods are safe for
// concurrent use; a nil *Store is a valid disabled cache (Get always
// misses, Put is a no-op), so callers need no branching.
type Store struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	idx   map[string]json.RawMessage
	stats Stats
}

// Open loads (or creates) the store at path. Malformed lines are skipped
// and counted in Stats().Corrupt; a file whose header names an unknown
// version is renamed to path+".corrupt" and a fresh store is started.
func Open(path string) (*Store, error) {
	s := &Store{path: path, idx: map[string]json.RawMessage{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil && len(data) > 0:
		if !s.load(data) {
			// Unknown version or unreadable header: quarantine, restart.
			_ = os.Rename(path, path+".corrupt")
		}
	case err != nil && !os.IsNotExist(err):
		return nil, fmt.Errorf("cache: open %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cache: append %s: %w", path, err)
	}
	s.f = f
	if fi, err := f.Stat(); err == nil && fi.Size() == 0 {
		h, _ := json.Marshal(header{Magic: "v", Version: Version})
		if _, err := f.Write(append(h, '\n')); err != nil {
			f.Close()
			return nil, fmt.Errorf("cache: write header: %w", err)
		}
	}
	return s, nil
}

// load indexes the file contents. It returns false only when the header
// is present but names an unsupported version (caller quarantines);
// any other damage is absorbed line by line.
func (s *Store) load(data []byte) bool {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	first := true
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var h header
			if err := json.Unmarshal(line, &h); err == nil && h.Magic != "" {
				if h.Version != Version {
					return false
				}
				continue
			}
			// Headerless file (or corrupt header line): treat the line as a
			// candidate entry and keep going — old data beats no data.
		}
		var e entry
		if err := json.Unmarshal(line, &e); err != nil || e.K == "" {
			s.stats.Corrupt++
			continue
		}
		s.idx[e.K] = e.V // later-wins
	}
	s.stats.Loaded = len(s.idx)
	return true
}

// Get unmarshals the value stored under key into v, reporting whether the
// key was present (and decodable).
func (s *Store) Get(key string, v any) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	raw, ok := s.idx[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return false
	}
	if err := json.Unmarshal(raw, v); err != nil {
		s.stats.Misses++
		s.mu.Unlock()
		return false
	}
	s.stats.Hits++
	s.mu.Unlock()
	return true
}

// Put stores v under key: the in-memory index is updated and one line is
// appended (and flushed) to the file, so the entry survives the process.
func (s *Store) Put(key string, v any) error {
	if s == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cache: marshal %s: %w", key, err)
	}
	line, err := json.Marshal(entry{K: key, V: raw})
	if err != nil {
		return fmt.Errorf("cache: marshal entry %s: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx[key] = raw
	s.stats.Puts++
	if s.f == nil {
		return nil
	}
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("cache: append %s: %w", key, err)
	}
	return nil
}

// Len returns the number of distinct keys indexed.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.idx)
	return st
}

// Path returns the backing file path.
func (s *Store) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// Close syncs and closes the backing file. The index stays readable;
// further Puts update memory only.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
