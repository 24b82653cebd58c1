// Package journal is the daemon's write-ahead log of job intents: the
// durable half of the crash-only story. Before tlsd runs an expensive,
// artifact-producing job it appends a begin record (engine key plus the
// SimSpec coordinates needed to rebuild the job); when the job's
// artifact is safely in the store it appends a commit. A process that
// is SIGKILLed, OOM-ed, or power-cut mid-job therefore leaves a begin
// without a commit, and the next process replays the log, finds the
// orphan, and re-enqueues the work — the client's retry converges to a
// warm or recovered hit instead of silently losing the computation.
//
// The log is append-only, one checksummed record per line, fsynced per
// append. Replay is a pure function of the file's bytes and stops at
// the first record that fails its frame or checksum: a torn tail (the
// signature a crash mid-append leaves) truncates cleanly back to the
// last whole record, never poisons the records before it, and is never
// an error. Committed pairs are pruned by compaction, which runs at
// every open (also erasing the torn tail from disk) and again whenever
// the live log outgrows a size threshold.
//
// Replay also counts how many times each pending job has been begun
// without ever committing. That count is the crash-loop breaker: a job
// whose recovery keeps killing the process is re-begun once per
// restart, so its attempt count climbs until the daemon marks it
// poisoned — quarantined in the log, reported in /readyz, its key
// pre-opened in the breaker set — instead of taking the whole service
// down on every boot. This mirrors the paper's stance that speculation
// must be verified and recovered, never trusted blindly (PAPER.md §5):
// here the "speculation" is that a journaled job will finish, and
// replay is the verify-and-recover pass.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlssync/internal/store"
)

// Record operations.
const (
	OpBegin  = "begin"  // a job is about to run
	OpCommit = "commit" // the job's artifact is durably stored (or it failed cleanly)
	OpPoison = "poison" // the job crashed the process too many times; quarantined
)

// Record is one journal entry. Begin records carry enough of the
// SimSpec to rebuild the job after a restart: the engine coalescing
// key plus the (kind, bench, label) coordinates.
type Record struct {
	Op    string `json:"op"`
	Key   string `json:"key"`             // engine coalescing key
	Kind  string `json:"kind,omitempty"`  // job family, e.g. "simulate"
	Bench string `json:"bench,omitempty"` // workload name
	Label string `json:"label,omitempty"` // policy label
	// Attempt is the cumulative begin count for the key as of this
	// record (1 for a first begin). Compaction preserves the count by
	// writing a single begin stamped with it, so crash-loop accounting
	// survives log rewrites.
	Attempt int   `json:"attempt,omitempty"`
	Unix    int64 `json:"unix,omitempty"` // append time, seconds since epoch
}

// Pending is an incomplete job reconstructed by replay: its latest
// begin record plus how many times it has been begun without a commit.
type Pending struct {
	Record
	Attempts int // begin records since the last commit
}

// State is the replayed content of a journal: jobs still in flight when
// the previous process died, and jobs quarantined as poisoned.
type State struct {
	Pending  map[string]*Pending
	Poisoned map[string]Record
}

func newState() *State {
	return &State{Pending: make(map[string]*Pending), Poisoned: make(map[string]Record)}
}

// apply folds one record into the state. Replay and the live journal
// share it, so "double replay == single replay" holds by construction:
// the fold is deterministic in the record sequence.
func (st *State) apply(r Record) {
	switch r.Op {
	case OpBegin:
		p := st.Pending[r.Key]
		if p == nil {
			p = &Pending{}
			st.Pending[r.Key] = p
		}
		if r.Attempt > 0 {
			p.Attempts = r.Attempt
		} else {
			p.Attempts++
		}
		p.Record = r
		// A fresh intent supersedes an old quarantine: the operator (or a
		// half-open breaker probe) decided to try the key again.
		delete(st.Poisoned, r.Key)
	case OpCommit:
		delete(st.Pending, r.Key) // commit for an unknown key: no-op
	case OpPoison:
		delete(st.Pending, r.Key)
		st.Poisoned[r.Key] = r
	}
}

// Info reports what replay found.
type Info struct {
	Records    int   // whole records replayed
	TornTail   bool  // the file ended in a partial/corrupt record
	ValidBytes int64 // length of the valid prefix
}

// frameMagic heads every record line; bump on format change.
const frameMagic = "tlsj1"

// castagnoli is the CRC-32C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame renders one record line:
//
//	tlsj1 <crc32c-hex> <payload-len> <payload-json>\n
//
// The length is checked before the checksum so a truncated payload can
// never masquerade as a shorter valid one, and the trailing newline is
// required so a torn append (no newline yet) is always detected.
func frame(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf("%s %08x %d %s\n",
		frameMagic, crc32.Checksum(payload, castagnoli), len(payload), payload)), nil
}

// parseLine decodes one framed line (including its trailing newline).
// Any mismatch — bad magic, bad length, bad checksum, missing newline —
// returns an error, which replay interprets as the torn tail.
func parseLine(line string) (Record, error) {
	var r Record
	if !strings.HasSuffix(line, "\n") {
		return r, errors.New("journal: unterminated record")
	}
	rest, ok := strings.CutPrefix(line, frameMagic+" ")
	if !ok {
		return r, errors.New("journal: bad magic")
	}
	crcHex, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return r, errors.New("journal: missing checksum")
	}
	lenStr, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return r, errors.New("journal: missing length")
	}
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil {
		return r, fmt.Errorf("journal: bad checksum field: %w", err)
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil || n < 0 {
		return r, fmt.Errorf("journal: bad length field: %v", err)
	}
	payload := strings.TrimSuffix(rest, "\n")
	if len(payload) != n {
		return r, fmt.Errorf("journal: length mismatch: header %d, payload %d", n, len(payload))
	}
	if crc32.Checksum([]byte(payload), castagnoli) != uint32(want) {
		return r, errors.New("journal: checksum mismatch")
	}
	if err := json.Unmarshal([]byte(payload), &r); err != nil {
		return r, fmt.Errorf("journal: bad payload: %w", err)
	}
	return r, nil
}

// Replay folds every whole record of rd into a fresh State, stopping at
// the first torn or corrupt record. The tail after that point is
// dropped and reported via Info, never as an error: a torn tail is the
// expected signature of a crash mid-append, not an operator problem.
func Replay(rd io.Reader) (*State, Info, error) {
	st := newState()
	var info Info
	br := bufio.NewReader(rd)
	for {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return st, info, fmt.Errorf("journal: read: %w", err)
		}
		if line != "" {
			rec, perr := parseLine(line)
			if perr != nil {
				info.TornTail = true
				return st, info, nil
			}
			st.apply(rec)
			info.Records++
			info.ValidBytes += int64(len(line))
		}
		if err == io.EOF {
			return st, info, nil
		}
	}
}

// ReplayFile replays the journal at path through fsys. A missing file
// is an empty journal. Replay is pure: calling it twice on the same
// file yields identical state (the idempotence the crash harness
// asserts before trusting recovery).
func ReplayFile(fsys store.FS, path string) (*State, Info, error) {
	if fsys == nil {
		fsys = store.OS
	}
	f, err := fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return newState(), Info{}, nil
		}
		return nil, Info{}, err
	}
	defer f.Close()
	return Replay(f)
}

// Stats is a snapshot of the journal's counters for /stats and /readyz.
type Stats struct {
	Path         string `json:"path"`
	Pending      int    `json:"pending"`       // begun, not yet committed
	Poisoned     int    `json:"poisoned"`      // quarantined crash-loopers
	Replayed     int    `json:"replayed"`      // records recovered at open
	TornTails    int64  `json:"torn_tails"`    // corrupt tails truncated at open
	Appends      int64  `json:"appends"`       // records written by this process
	AppendErrors int64  `json:"append_errors"` // appends that failed (journal degraded)
	Compactions  int64  `json:"compactions"`   // log rewrites (open + rotation)
	SizeBytes    int64  `json:"size_bytes"`    // current log size
}

// DefaultRotateBytes is the log size that triggers compaction.
const DefaultRotateBytes = 1 << 20

// Journal is the live write-ahead log. All methods are safe for
// concurrent use. Append failures degrade durability, not service:
// they are counted and the in-memory state stays authoritative for the
// life of the process.
type Journal struct {
	mu       sync.Mutex
	fs       store.FS
	dir      string
	path     string
	f        store.File
	size     int64
	rotateAt int64
	st       *State
	begun    map[string]bool // keys begun by THIS process (dedupe across coalesced callers)
	stats    Stats
	now      func() time.Time // test seam
}

// walName is the journal file's name inside its directory.
const walName = "wal"

// Open replays the journal under dir (created if missing), truncates
// any torn tail by compacting the valid prefix back to disk, and
// returns the live journal positioned for appends. Leftover compaction
// temp files from a crashed predecessor are removed.
func Open(dir string, fsys store.FS) (*Journal, error) {
	if fsys == nil {
		fsys = store.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: dir: %w", err)
	}
	j := &Journal{
		fs:       fsys,
		dir:      dir,
		path:     filepath.Join(dir, walName),
		rotateAt: DefaultRotateBytes,
		begun:    make(map[string]bool),
		now:      time.Now,
	}
	// Crash residue: a predecessor may have died between writing a
	// compaction temp and renaming it into place.
	if entries, err := fsys.ReadDir(dir); err == nil {
		for _, e := range entries {
			if name := e.Name(); name != walName && strings.HasPrefix(name, ".wal") {
				fsys.Remove(filepath.Join(dir, name))
			}
		}
	}
	st, info, err := ReplayFile(fsys, j.path)
	if err != nil {
		return nil, fmt.Errorf("journal: replay: %w", err)
	}
	j.st = st
	j.stats.Replayed = info.Records
	if info.TornTail {
		j.stats.TornTails++
	}
	// Compact unconditionally: prunes committed pairs and rewrites the
	// valid prefix, which is also how a torn tail is erased from disk.
	if err := j.compactLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// Begin journals the intent to run the job described by rec (Op is set
// for the caller) and returns the key's cumulative attempt count. A key
// already begun by this process is not re-appended — coalesced callers
// share one intent — but a pending entry inherited from a previous
// process IS re-begun, which is exactly what advances the crash-loop
// counter once per restart.
func (j *Journal) Begin(rec Record) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if p := j.st.Pending[rec.Key]; p != nil && j.begun[rec.Key] {
		return p.Attempts
	}
	rec.Op = OpBegin
	rec.Attempt = 1
	if p := j.st.Pending[rec.Key]; p != nil {
		rec.Attempt = p.Attempts + 1
	}
	rec.Unix = j.now().Unix()
	j.appendLocked(rec)
	j.begun[rec.Key] = true
	return rec.Attempt
}

// Commit journals that the job under key completed (its artifact is
// durably stored, or it failed cleanly in-process — either way it is
// not crash-recovery work). Committing a key with no pending intent is
// a no-op.
func (j *Journal) Commit(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.st.Pending[key]; !ok {
		return
	}
	j.appendLocked(Record{Op: OpCommit, Key: key, Unix: j.now().Unix()})
}

// Poison quarantines the pending job under key: it stops being recovery
// work and is reported via Poisoned until a future begin supersedes it.
func (j *Journal) Poison(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p, ok := j.st.Pending[key]
	if !ok {
		return
	}
	rec := p.Record
	rec.Op = OpPoison
	rec.Attempt = p.Attempts
	rec.Unix = j.now().Unix()
	j.appendLocked(rec)
}

// appendLocked folds rec into the state and writes it to the log with
// an fsync. Write failures are counted, not returned: the in-memory
// state stays correct and the service keeps running with degraded
// durability (surfaced via AppendErrors in /stats and /readyz).
func (j *Journal) appendLocked(rec Record) {
	j.st.apply(rec)
	line, err := frame(rec)
	if err != nil {
		j.stats.AppendErrors++
		return
	}
	if j.f == nil {
		f, err := j.fs.OpenAppend(j.path)
		if err != nil {
			j.stats.AppendErrors++
			return
		}
		j.f = f
	}
	if _, err := j.f.Write(line); err != nil {
		j.stats.AppendErrors++
		return
	}
	if err := j.f.Sync(); err != nil {
		j.stats.AppendErrors++
		return
	}
	j.stats.Appends++
	j.size += int64(len(line))
	if j.size > j.rotateAt {
		if err := j.compactLocked(); err != nil {
			j.stats.AppendErrors++
		}
	}
}

// compactLocked rewrites the log to just the live records — one begin
// per pending key (stamped with its cumulative attempt count) and one
// poison per quarantined key — through store.WriteFileAtomic (temp +
// fsync + rename + dir fsync), then reopens the append handle.
func (j *Journal) compactLocked() error {
	var buf []byte
	for _, key := range sortedKeys(j.st.Pending) {
		p := j.st.Pending[key]
		rec := p.Record
		rec.Op = OpBegin
		rec.Attempt = p.Attempts
		line, err := frame(rec)
		if err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
		buf = append(buf, line...)
	}
	for _, key := range sortedKeys(j.st.Poisoned) {
		rec := j.st.Poisoned[key]
		rec.Op = OpPoison
		line, err := frame(rec)
		if err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
		buf = append(buf, line...)
	}
	// Close the old handle before the rename replaces the file, so no
	// appends land on the unlinked inode. Reopen whatever the write
	// returns: after a failed write the old log is still in place, and
	// after a failed directory sync the new one already is.
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	werr := store.WriteFileAtomic(j.fs, j.path, buf, 0o755)
	f, err := j.fs.OpenAppend(j.path)
	if err != nil {
		return fmt.Errorf("journal: compact: reopen: %w", err)
	}
	j.f = f
	if werr != nil {
		return fmt.Errorf("journal: compact: %w", werr)
	}
	j.size = int64(len(buf))
	j.stats.Compactions++
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Pending returns the incomplete jobs, sorted by key.
func (j *Journal) Pending() []Pending {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Pending, 0, len(j.st.Pending))
	for _, key := range sortedKeys(j.st.Pending) {
		out = append(out, *j.st.Pending[key])
	}
	return out
}

// Poisoned returns the quarantined records, sorted by key.
func (j *Journal) Poisoned() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, 0, len(j.st.Poisoned))
	for _, key := range sortedKeys(j.st.Poisoned) {
		out = append(out, j.st.Poisoned[key])
	}
	return out
}

// Stats returns a snapshot of the counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.stats
	st.Path = j.path
	st.Pending = len(j.st.Pending)
	st.Poisoned = len(j.st.Poisoned)
	st.SizeBytes = j.size
	return st
}

// Close releases the append handle. The journal is crash-only — Close
// exists for tests; production exits via SIGKILL and replay.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
