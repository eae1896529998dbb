// Package cache is the persistent content-addressed artifact store behind
// incremental sweeps: it memoizes the two expensive artifact classes of the
// experiment pipeline — generated traces and per-cell replay results — on
// disk, keyed by a digest of everything that could change the answer (the
// full generation or replay configuration, the trace content address, the
// trace format version, and the dynsched version).
//
// The store is designed never to return a wrong answer:
//
//   - Entries are written crash-safely through a temp file + fsync + rename
//     (obs.WriteFileAtomic), so a SIGKILL mid-write leaves either the old
//     entry or none — never a torn one under the entry's name.
//   - Every read re-verifies the entry: magic, plausible lengths, a CRC-32
//     over the whole entry, and the full key string stored inside the entry
//     (so even an FNV-64 address collision degrades to a miss, not a wrong
//     payload). Any mismatch deletes the entry and reports a miss; the
//     caller recomputes and overwrites.
//   - Two processes racing on one directory are safe by construction: both
//     compute the same deterministic payload for a key, and rename is
//     atomic, so concurrent Puts of an entry are idempotent and a Get
//     observes either a complete entry or none.
//
// An index file (index.json) carries LRU metadata and lifetime hit/miss
// counters for `hidelat cache stats`; it is advisory only — Open rescans the
// objects directory, so a stale or missing index never loses entries, and
// GC falls back to file mtimes for recency. GC evicts least-recently-used
// entries until the store fits a byte budget.
package cache

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dynsched/internal/obs"
)

// Entry container constants.
var entryMagic = [4]byte{'D', 'S', 'C', '1'}

const (
	maxKeyLen     = 1 << 16 // sanity bound on the stored key string
	maxPayloadLen = 1 << 31 // sanity bound on the stored payload
)

// Options parameterizes Open.
type Options struct {
	// Version namespaces every key: entries written by a different dynsched
	// version (or trace format) can never satisfy this store's lookups.
	Version string
	// MaxBytes, when positive, bounds the store: a Put that pushes the total
	// past the bound triggers an LRU GC back under it. Zero leaves the store
	// unbounded until an explicit GC.
	MaxBytes int64
	// Metrics, when non-nil, receives the per-run "cache.hits",
	// "cache.misses", "cache.bytes_read", and "cache.bytes_written" counters
	// (excluded from the ledger's determinism FNV, so cold and warm runs
	// stay checksum-identical).
	Metrics *obs.Registry
}

// entryMeta is one entry's index record.
type entryMeta struct {
	Kind     string `json:"kind,omitempty"`
	Size     int64  `json:"size"`
	Created  int64  `json:"created,omitempty"`   // unix seconds
	LastUsed int64  `json:"last_used,omitempty"` // unix seconds, the LRU key
}

// indexFile is the on-disk shape of index.json.
type indexFile struct {
	Schema  int                  `json:"schema"`
	Version string               `json:"version"`
	Hits    uint64               `json:"hits"`   // lifetime, across processes
	Misses  uint64               `json:"misses"` // lifetime, across processes
	Entries map[string]entryMeta `json:"entries"`
}

// Store is an on-disk content-addressed artifact cache. The zero value is
// not usable; call Open. All methods are safe on a nil *Store (they report
// misses and do nothing), so call sites need no cache-enabled branches.
type Store struct {
	dir     string
	version string
	max     int64
	reg     *obs.Registry

	mu      sync.Mutex
	entries map[string]entryMeta
	total   int64 // sum of entry sizes

	// Session counters (lifetime counters live in the index).
	hits, misses, verified, divergent uint64
	baseHits, baseMisses              uint64 // lifetime totals loaded from the index
}

// Open opens (creating if needed) the store rooted at dir. The objects
// directory is scanned so entries survive a missing or stale index file.
func Open(dir string, o Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("cache: open %s: %w", dir, err)
	}
	s := &Store{
		dir: dir, version: o.Version, max: o.MaxBytes, reg: o.Metrics,
		entries: make(map[string]entryMeta),
	}
	var idx indexFile
	if data, err := os.ReadFile(s.indexPath()); err == nil {
		// A corrupt index is rebuilt from the scan below, never an error.
		if json.Unmarshal(data, &idx) == nil {
			s.baseHits, s.baseMisses = idx.Hits, idx.Misses
		}
	}
	if err := s.scan(idx.Entries); err != nil {
		return nil, err
	}
	return s, nil
}

// scan walks the objects directory, merging any index metadata for entries
// that still exist. The directory is the source of truth; the index only
// contributes kind labels and LRU times (capped to be at least the mtime).
func (s *Store) scan(fromIndex map[string]entryMeta) error {
	root := filepath.Join(s.dir, "objects")
	shards, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("cache: scan %s: %w", root, err)
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || strings.HasPrefix(name, ".") {
				continue // temp files from in-flight or crashed writers
			}
			fi, err := f.Info()
			if err != nil {
				continue
			}
			m := entryMeta{Size: fi.Size(), LastUsed: fi.ModTime().Unix(), Created: fi.ModTime().Unix()}
			if im, ok := fromIndex[name]; ok {
				m.Kind = im.Kind
				if im.Created != 0 {
					m.Created = im.Created
				}
				if im.LastUsed > m.LastUsed {
					m.LastUsed = im.LastUsed
				}
			}
			s.entries[name] = m
			s.total += m.Size
		}
	}
	return nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

func (s *Store) fullKey(kind, key string) string {
	return "v=" + s.version + "|" + kind + "|" + key
}

// addrOf is the content address of a namespaced key: its FNV-64a, in the
// same %016x form as a trace's content address (trace.ContentAddr).
func addrOf(fullKey string) string {
	h := fnv.New64a()
	io.WriteString(h, fullKey)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (s *Store) path(addr string) string {
	return filepath.Join(s.dir, "objects", addr[:2], addr)
}

// Get returns the payload stored under (kind, key). A missing, torn,
// bit-flipped, or key-colliding entry is a miss — the corrupt file is
// removed so the next Put rewrites it cleanly.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	return s.GetChecked(kind, key, nil)
}

// GetChecked is Get for a caller that decodes the payload: check, when
// non-nil, runs on the verified payload before the lookup is counted, and
// a payload it rejects is a miss, removed like a corrupt entry.
func (s *Store) GetChecked(kind, key string, check func([]byte) error) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	full := s.fullKey(kind, key)
	addr := addrOf(full)
	payload, err := readEntry(s.path(addr), full)
	if err == nil && check != nil {
		err = check(payload)
	}
	if err != nil {
		if !os.IsNotExist(err) {
			// Corrupt or mismatched: delete so the recompute can replace it.
			os.Remove(s.path(addr))
		}
		s.count(&s.misses, "cache.misses", 1)
		s.mu.Lock()
		if _, ok := s.entries[addr]; ok && !os.IsNotExist(err) {
			s.total -= s.entries[addr].Size
			delete(s.entries, addr)
		}
		s.mu.Unlock()
		return nil, false
	}
	now := time.Now()
	s.mu.Lock()
	if m, ok := s.entries[addr]; ok {
		m.LastUsed = now.Unix()
		s.entries[addr] = m
	}
	s.mu.Unlock()
	// Touch the file so LRU survives processes that never write the index.
	os.Chtimes(s.path(addr), now, now)
	s.count(&s.hits, "cache.hits", 1)
	s.reg.Counter("cache.bytes_read").Add(uint64(len(payload)))
	return payload, true
}

// Put stores payload under (kind, key), atomically and crash-safely. An
// existing entry is replaced (deterministic recomputation makes old and new
// identical, so the replace is idempotent).
func (s *Store) Put(kind, key string, payload []byte) error {
	if s == nil {
		return nil
	}
	full := s.fullKey(kind, key)
	if len(full) > maxKeyLen {
		return fmt.Errorf("cache: key too long (%d bytes)", len(full))
	}
	addr := addrOf(full)
	path := s.path(addr)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: put: %w", err)
	}
	var size int64
	err := obs.WriteFileAtomic(path, func(w io.Writer) error {
		n, err := writeEntry(w, full, payload)
		size = n
		return err
	})
	if err != nil {
		return err
	}
	now := time.Now().Unix()
	s.mu.Lock()
	if old, ok := s.entries[addr]; ok {
		s.total -= old.Size
	}
	s.entries[addr] = entryMeta{Kind: kind, Size: size, Created: now, LastUsed: now}
	s.total += size
	needGC := s.max > 0 && s.total > s.max
	s.mu.Unlock()
	s.reg.Counter("cache.bytes_written").Add(uint64(size))
	if needGC {
		s.GC(s.max)
	}
	return nil
}

// writeEntry serializes one entry: magic, key length + key, payload length +
// payload, and a CRC-32 (IEEE) over everything before it.
func writeEntry(w io.Writer, fullKey string, payload []byte) (int64, error) {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	var n int64
	write := func(b []byte) error {
		m, err := mw.Write(b)
		n += int64(m)
		return err
	}
	var u32 [4]byte
	if err := write(entryMagic[:]); err != nil {
		return n, err
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(len(fullKey)))
	if err := write(u32[:]); err != nil {
		return n, err
	}
	if err := write([]byte(fullKey)); err != nil {
		return n, err
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(len(payload)))
	if err := write(u32[:]); err != nil {
		return n, err
	}
	if err := write(payload); err != nil {
		return n, err
	}
	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	m, err := w.Write(u32[:])
	n += int64(m)
	return n, err
}

// readEntry reads and fully verifies one entry file, returning its payload.
// Every failure mode — short file, bad magic, implausible lengths, CRC
// mismatch, key mismatch — is an error the caller treats as a miss.
func readEntry(path, wantKey string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 4+4+4+4 {
		return nil, fmt.Errorf("cache: entry %s: truncated (%d bytes)", path, len(data))
	}
	if [4]byte(data[0:4]) != entryMagic {
		return nil, fmt.Errorf("cache: entry %s: bad magic %q", path, data[0:4])
	}
	keyLen := binary.LittleEndian.Uint32(data[4:8])
	if keyLen > maxKeyLen || int64(len(data)) < 8+int64(keyLen)+8 {
		return nil, fmt.Errorf("cache: entry %s: implausible key length %d", path, keyLen)
	}
	key := string(data[8 : 8+keyLen])
	off := 8 + int(keyLen)
	payLen := binary.LittleEndian.Uint32(data[off : off+4])
	off += 4
	if uint64(payLen) > maxPayloadLen || int64(len(data)) != int64(off)+int64(payLen)+4 {
		return nil, fmt.Errorf("cache: entry %s: length mismatch (payload %d, file %d)", path, payLen, len(data))
	}
	payload := data[off : off+int(payLen)]
	want := binary.LittleEndian.Uint32(data[off+int(payLen):])
	if got := crc32.ChecksumIEEE(data[:off+int(payLen)]); got != want {
		return nil, fmt.Errorf("cache: entry %s: CRC mismatch (computed %08x, stored %08x)", path, got, want)
	}
	if wantKey != "" && key != wantKey {
		return nil, fmt.Errorf("cache: entry %s: key mismatch (address collision)", path)
	}
	return payload, nil
}

// count bumps a session counter and its registry mirror.
func (s *Store) count(local *uint64, name string, n uint64) {
	s.mu.Lock()
	*local += n
	s.mu.Unlock()
	s.reg.Counter(name).Add(n)
}

// CountVerified records a -cache-verify recomputation: ok says whether the
// recomputed result matched the cached one.
func (s *Store) CountVerified(ok bool) {
	if s == nil {
		return
	}
	if ok {
		s.count(&s.verified, "cache.verified", 1)
	} else {
		s.count(&s.divergent, "cache.verify_failures", 1)
	}
}

// Stats summarizes the store for `hidelat cache stats` and the run report.
type Stats struct {
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	// Session counters: this process only.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Verified  uint64 `json:"verified,omitempty"`
	Divergent uint64 `json:"divergent,omitempty"`
	// Lifetime counters: accumulated across processes via the index file.
	LifetimeHits   uint64 `json:"lifetime_hits"`
	LifetimeMisses uint64 `json:"lifetime_misses"`
}

// Stats returns a point-in-time summary. Safe on a nil store.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dir: s.dir, Entries: len(s.entries), Bytes: s.total,
		Hits: s.hits, Misses: s.misses, Verified: s.verified, Divergent: s.divergent,
		LifetimeHits: s.baseHits + s.hits, LifetimeMisses: s.baseMisses + s.misses,
	}
}

// Hits returns the session hit count (0 on a nil store).
func (s *Store) Hits() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// Misses returns the session miss count (0 on a nil store).
func (s *Store) Misses() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// Close persists the index (LRU metadata plus lifetime counters). The store
// remains usable; Close may be called repeatedly. Safe on a nil store.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	idx := indexFile{
		Schema: 1, Version: s.version,
		Hits: s.baseHits + s.hits, Misses: s.baseMisses + s.misses,
		Entries: make(map[string]entryMeta, len(s.entries)),
	}
	for a, m := range s.entries {
		idx.Entries[a] = m
	}
	s.mu.Unlock()
	return obs.WriteFileAtomic(s.indexPath(), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(idx)
	})
}

// GC evicts least-recently-used entries until the store holds at most
// maxBytes, returning how many entries were removed and how many bytes were
// freed. maxBytes <= 0 empties the store.
func (s *Store) GC(maxBytes int64) (removed int, freed int64, err error) {
	if s == nil {
		return 0, 0, nil
	}
	s.mu.Lock()
	type cand struct {
		addr string
		meta entryMeta
	}
	cands := make([]cand, 0, len(s.entries))
	for a, m := range s.entries {
		cands = append(cands, cand{a, m})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].meta.LastUsed != cands[j].meta.LastUsed {
			return cands[i].meta.LastUsed < cands[j].meta.LastUsed
		}
		return cands[i].addr < cands[j].addr
	})
	var victims []cand
	total := s.total
	for _, c := range cands {
		if total <= maxBytes {
			break
		}
		victims = append(victims, c)
		total -= c.meta.Size
	}
	s.mu.Unlock()
	for _, v := range victims {
		if rmErr := os.Remove(s.path(v.addr)); rmErr != nil && !os.IsNotExist(rmErr) {
			err = rmErr
			continue
		}
		s.mu.Lock()
		if m, ok := s.entries[v.addr]; ok {
			s.total -= m.Size
			delete(s.entries, v.addr)
		}
		s.mu.Unlock()
		removed++
		freed += v.meta.Size
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return removed, freed, err
}

// Verify re-reads every entry end to end (magic, lengths, CRC, key) and
// removes the ones that fail, returning how many were checked and how many
// were corrupt. It also sweeps temp files left by crashed writers.
func (s *Store) Verify() (checked, corrupt int, err error) {
	if s == nil {
		return 0, 0, nil
	}
	s.mu.Lock()
	addrs := make([]string, 0, len(s.entries))
	for a := range s.entries {
		addrs = append(addrs, a)
	}
	s.mu.Unlock()
	sort.Strings(addrs)
	for _, a := range addrs {
		checked++
		if _, rerr := readEntry(s.path(a), ""); rerr != nil {
			corrupt++
			os.Remove(s.path(a))
			s.mu.Lock()
			if m, ok := s.entries[a]; ok {
				s.total -= m.Size
				delete(s.entries, a)
			}
			s.mu.Unlock()
		}
	}
	// Stale temp files are debris from crashed atomic writes; sweep them.
	root := filepath.Join(s.dir, "objects")
	if shards, derr := os.ReadDir(root); derr == nil {
		for _, sh := range shards {
			if !sh.IsDir() {
				continue
			}
			files, derr := os.ReadDir(filepath.Join(root, sh.Name()))
			if derr != nil {
				continue
			}
			for _, f := range files {
				if strings.HasPrefix(f.Name(), ".") {
					os.Remove(filepath.Join(root, sh.Name(), f.Name()))
				}
			}
		}
	}
	if cerr := s.Close(); cerr != nil {
		err = cerr
	}
	return checked, corrupt, err
}

// Clear removes every entry and the index. Safe on a nil store.
func (s *Store) Clear() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.entries = make(map[string]entryMeta)
	s.total = 0
	s.mu.Unlock()
	if err := os.RemoveAll(filepath.Join(s.dir, "objects")); err != nil {
		return err
	}
	os.Remove(s.indexPath())
	return os.MkdirAll(filepath.Join(s.dir, "objects"), 0o755)
}
