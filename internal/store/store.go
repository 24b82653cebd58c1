// Package store is a content-addressed artifact cache for the
// compile→profile→simulate pipeline. Artifacts — serialized sim.Results,
// dependence profiles, rendered figures — are keyed by the SHA-256 of
// everything that determines their content: the MiniC source, the
// compiler options, the policy label, and the machine configuration.
// Because the whole pipeline is deterministic (fixed seed, trace-driven
// timing), a key hit is guaranteed to be byte-identical to a fresh
// recomputation, so cached artifacts can be served to clients directly.
//
// The store is a two-level cache: a bounded in-memory LRU layer in front
// of an optional on-disk layer under a cache directory. Disk entries are
// written with a payload checksum and atomically (write-to-temp +
// rename); a corrupt or truncated entry is detected on read, counted,
// quarantined (moved into a quarantine/ subdirectory, preserving the
// forensic evidence), and treated as a miss so the caller falls back to
// recomputing. Opening a store scans the disk tier, so artifacts
// written by previous processes are counted and visible through Stats
// and Keys immediately, and a periodic Scrub verifies every disk
// entry's checksum in the background. All methods are safe for
// concurrent use.
package store

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Marshal renders an artifact payload as deterministic JSON: Go's
// encoding/json sorts map keys and the pipeline is seeded, so equal
// artifacts always serialize to equal bytes — the property that makes
// content-addressed caching sound.
func Marshal(v any) ([]byte, error) { return json.Marshal(v) }

// Key returns the content address for an artifact: a hex SHA-256 over
// the kind tag and every identifying part. Parts are length-prefixed so
// distinct part lists can never collide by concatenation.
func Key(kind string, parts ...string) string {
	h := sha256.New()
	writePart(h, kind)
	for _, p := range parts {
		writePart(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ValidKey reports whether key has the shape Key returns: 64
// lowercase hex digits. Keys that arrive from outside the process (peer
// requests, digests) must pass it before they reach the store, whose
// disk layer turns a key into a file path.
func ValidKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func writePart(h io.Writer, p string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
	h.Write(n[:])
	io.WriteString(h, p)
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Entries    int   `json:"entries"`     // in-memory entries
	Capacity   int   `json:"capacity"`    // in-memory LRU capacity
	Hits       int64 `json:"hits"`        // Get served (memory or disk)
	MemHits    int64 `json:"mem_hits"`    // ... of which from memory
	DiskHits   int64 `json:"disk_hits"`   // ... of which from disk
	Misses     int64 `json:"misses"`      // Get found nothing usable
	Evictions  int64 `json:"evictions"`   // memory entries evicted by LRU
	Puts       int64 `json:"puts"`        // artifacts stored
	DiskErrors int64 `json:"disk_errors"` // corrupt/unreadable/unwritable disk entries
	DiskBytes  int64 `json:"disk_bytes"`  // payload bytes written to disk

	// Crash-recovery visibility (populated when a cache dir is set).
	DiskEntries        int   `json:"disk_entries"`        // known disk-tier entries (scan + puts)
	CorruptQuarantined int64 `json:"corrupt_quarantined"` // corrupt entries moved to quarantine/
	ScanSkipped        int64 `json:"scan_skipped"`        // malformed names skipped by the open scan
	ScanTempsRemoved   int64 `json:"scan_temps_removed"`  // crashed writers' temp files reaped at open
	ScrubChecked       int64 `json:"scrub_checked"`       // entries verified by Scrub
}

// Store is the two-level content-addressed cache.
type Store struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	dir   string              // "" = memory only
	fs    FS                  // filesystem seam for the disk layer
	known map[string]struct{} // keys believed present in the disk tier
	stats Stats
}

// entry is one in-memory artifact.
type entry struct {
	key string
	val []byte
}

// DefaultCapacity bounds the in-memory layer when the caller passes a
// non-positive capacity.
const DefaultCapacity = 256

// New returns a store holding at most capacity artifacts in memory
// (<= 0 selects DefaultCapacity). If dir is non-empty, artifacts are
// also persisted under it (created if missing) and survive restarts.
func New(capacity int, dir string) (*Store, error) {
	return NewWithFS(capacity, dir, OS)
}

// NewWithFS is New with an explicit filesystem for the disk layer —
// the fault-injection seam used by the chaos and crash tests (fsys ==
// nil selects the real filesystem). When dir is non-empty the disk
// tier is scanned at open: artifacts written by previous processes are
// counted and reported through Stats and Keys before they are ever
// touched, malformed filenames are skipped with a counted warning
// (never a failed open), and temp files abandoned by a crashed writer
// are reaped.
func NewWithFS(capacity int, dir string, fsys FS) (*Store, error) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if fsys == nil {
		fsys = OS
	}
	if dir != "" {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: cache dir: %w", err)
		}
	}
	s := &Store{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		dir:   dir,
		fs:    fsys,
		known: make(map[string]struct{}),
	}
	s.stats.Capacity = capacity
	if dir != "" {
		s.scanDisk()
	}
	return s, nil
}

// reservedDirs are cache-dir subdirectories that are not shards:
// quarantined corrupt artifacts, the write-ahead journal, and the
// cluster layer's epoch file (cmd/tlsd).
func reservedDir(name string) bool {
	return name == "quarantine" || name == "journal" || name == "cluster"
}

// scanDisk walks the disk tier once at open, registering every
// well-formed entry so Stats and Keys reflect prior processes' work.
// It is deliberately lenient: a directory it cannot read or a filename
// it does not recognize degrades a counter, never the open.
func (s *Store) scanDisk() {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		s.stats.DiskErrors++
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || reservedDir(name) {
			if !e.IsDir() {
				s.stats.ScanSkipped++
			}
			continue
		}
		if len(name) != 2 {
			s.stats.ScanSkipped++
			continue
		}
		files, err := s.fs.ReadDir(filepath.Join(s.dir, name))
		if err != nil {
			s.stats.DiskErrors++
			continue
		}
		for _, f := range files {
			fn := f.Name()
			switch {
			case f.IsDir():
				s.stats.ScanSkipped++
			case strings.HasPrefix(fn, "."):
				// A temp file here means a writer died between CreateTemp
				// and rename; its entry was never linked, so reap it.
				s.fs.Remove(filepath.Join(s.dir, name, fn))
				s.stats.ScanTempsRemoved++
			case len(fn) < 2 || fn[:2] != name:
				s.stats.ScanSkipped++
			default:
				s.known[fn] = struct{}{}
			}
		}
	}
}

// Dir returns the on-disk cache directory ("" when memory-only).
func (s *Store) Dir() string { return s.dir }

// Get returns the artifact stored under key. It consults the in-memory
// LRU first and falls back to the disk layer; a disk hit is promoted
// into memory. The returned slice must not be modified by the caller.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		s.stats.Hits++
		s.stats.MemHits++
		val := el.Value.(*entry).val
		s.mu.Unlock()
		return val, true
	}
	s.mu.Unlock()

	if s.dir == "" {
		s.miss()
		return nil, false
	}
	val, err := s.readDisk(key)
	if err != nil {
		if os.IsNotExist(err) {
			s.mu.Lock()
			delete(s.known, key)
			s.mu.Unlock()
		} else {
			s.mu.Lock()
			s.stats.DiskErrors++
			s.mu.Unlock()
			// Quarantine only on verified corruption (bad format/checksum).
			// A transient error — EACCES, EMFILE under fd pressure — must
			// keep the entry: it may read fine next time.
			if errors.Is(err, errCorrupt) {
				s.quarantine(key)
			}
		}
		s.miss()
		return nil, false
	}
	s.mu.Lock()
	s.stats.Hits++
	s.stats.DiskHits++
	s.insertLocked(key, val)
	s.mu.Unlock()
	return val, true
}

func (s *Store) miss() {
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
}

// Put stores the artifact under key in memory and, when a cache dir is
// configured, on disk. Disk failures are counted but do not fail the
// put: the in-memory layer still serves the artifact.
func (s *Store) Put(key string, val []byte) {
	s.mu.Lock()
	s.stats.Puts++
	s.insertLocked(key, val)
	s.mu.Unlock()

	if s.dir == "" {
		return
	}
	if err := s.writeDisk(key, val); err != nil {
		s.mu.Lock()
		s.stats.DiskErrors++
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.stats.DiskBytes += int64(len(val))
	s.known[key] = struct{}{}
	s.mu.Unlock()
}

// quarantine moves a verifiably corrupt disk entry into the
// quarantine/ subdirectory instead of deleting it: the bytes are the
// forensic evidence (what got torn, how far the write progressed) that
// the scrubber's counters point operators at. A quarantine that itself
// fails falls back to counting only; the entry stays and will be
// re-detected.
func (s *Store) quarantine(key string) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := s.fs.MkdirAll(qdir, 0o755); err != nil {
		s.mu.Lock()
		s.stats.DiskErrors++
		s.mu.Unlock()
		return
	}
	if err := s.fs.Rename(s.path(key), filepath.Join(qdir, key)); err != nil {
		s.mu.Lock()
		s.stats.DiskErrors++
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.stats.CorruptQuarantined++
	delete(s.known, key)
	s.mu.Unlock()
}

// Scrub verifies the checksum of every known disk entry, quarantining
// the corrupt ones. It is the proactive half of the corruption story:
// Get catches bad entries on demand; Scrub catches the ones nobody has
// asked for yet, so /readyz can report bit rot before a client finds
// it. Returns how many entries were checked and how many quarantined.
// ctx bounds the walk (the daemon runs Scrub on a ticker).
func (s *Store) Scrub(ctx context.Context) (checked int, quarantined int) {
	if s.dir == "" {
		return 0, 0
	}
	s.mu.Lock()
	keys := make([]string, 0, len(s.known))
	for k := range s.known {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		if ctx.Err() != nil {
			return checked, quarantined
		}
		_, err := s.readDisk(key)
		switch {
		case err == nil:
			checked++
		case os.IsNotExist(err):
			s.mu.Lock()
			delete(s.known, key)
			s.mu.Unlock()
		case errors.Is(err, errCorrupt):
			checked++
			s.mu.Lock()
			s.stats.DiskErrors++
			s.mu.Unlock()
			s.quarantine(key)
			quarantined++
		default:
			// Transient read failure: count it, keep the entry.
			checked++
			s.mu.Lock()
			s.stats.DiskErrors++
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	s.stats.ScrubChecked += int64(checked)
	s.mu.Unlock()
	return checked, quarantined
}

// insertLocked adds or refreshes a memory entry and evicts past cap.
func (s *Store) insertLocked(key string, val []byte) {
	if el, ok := s.items[key]; ok {
		el.Value.(*entry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&entry{key: key, val: val})
	for s.ll.Len() > s.cap {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.items, last.Value.(*entry).key)
		s.stats.Evictions++
	}
}

// Len returns the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Keys returns every key the store can serve: the in-memory keys from
// most to least recently used, followed by disk-only keys (including
// entries inherited from previous processes via the open scan) in
// sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.ll.Len()+len(s.known))
	inMem := make(map[string]bool, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		k := el.Value.(*entry).key
		inMem[k] = true
		out = append(out, k)
	}
	var disk []string
	for k := range s.known {
		if !inMem[k] {
			disk = append(disk, k)
		}
	}
	sort.Strings(disk)
	return append(out, disk...)
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.ll.Len()
	st.DiskEntries = len(s.known)
	return st
}

// --- disk layer ---

// diskMagic heads every on-disk entry; bump on format change.
const diskMagic = "tlsstore1"

// path maps a key to its cache file, sharded by the first key byte to
// keep directories small.
func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key)
}

// writeDisk persists one entry atomically with a payload checksum,
// through WriteFileAtomic's durable-rename protocol:
//
//	tlsstore1 <hex sha256 of payload>\n<payload>
func (s *Store) writeDisk(key string, val []byte) error {
	sum := sha256.Sum256(val)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %s\n", diskMagic, hex.EncodeToString(sum[:]))
	buf.Write(val)
	return WriteFileAtomic(s.fs, s.path(key), buf.Bytes(), 0o755)
}

// errCorrupt marks an entry whose on-disk format or checksum is
// verifiably wrong, so deleting it is safe. Transient I/O errors are
// returned without this mark and must leave the entry in place.
var errCorrupt = errors.New("corrupt entry")

// readDisk loads and verifies one entry. A missing file returns an
// os.IsNotExist error; verified corruption (bad format or checksum)
// returns an error wrapping errCorrupt; anything else is a transient
// read failure.
func (s *Store) readDisk(key string) ([]byte, error) {
	f, err := s.fs.Open(s.path(key))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	header, err := r.ReadString('\n')
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("store: %s: truncated header: %w", key, errCorrupt)
		}
		return nil, fmt.Errorf("store: %s: %w", key, err)
	}
	fields := strings.Fields(strings.TrimSpace(header))
	if len(fields) != 2 || fields[0] != diskMagic {
		return nil, fmt.Errorf("store: %s: bad header: %w", key, errCorrupt)
	}
	val, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", key, err)
	}
	sum := sha256.Sum256(val)
	if hex.EncodeToString(sum[:]) != fields[1] {
		return nil, fmt.Errorf("store: %s: checksum mismatch: %w", key, errCorrupt)
	}
	return val, nil
}
