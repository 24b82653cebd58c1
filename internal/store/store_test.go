package store_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tlssync/internal/core"
	"tlssync/internal/sim"
	"tlssync/internal/store"
)

func TestKeyDistinctAndStable(t *testing.T) {
	k1 := store.Key("result", "src", "opts", "C", "machine")
	if k2 := store.Key("result", "src", "opts", "C", "machine"); k2 != k1 {
		t.Fatalf("same parts hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key length = %d, want 64 hex chars", len(k1))
	}
	distinct := map[string]bool{k1: true}
	for _, k := range []string{
		store.Key("figure", "src", "opts", "C", "machine"), // kind matters
		store.Key("result", "src", "opts", "U", "machine"), // policy matters
		store.Key("result", "srco", "pts", "C", "machine"), // no concat ambiguity
	} {
		if distinct[k] {
			t.Fatalf("key collision: %s", k)
		}
		distinct[k] = true
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	s, err := store.New(3, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		s.Put(k, []byte(k))
	}
	// Refresh k1, then push two more: eviction order must be k2, k3.
	if _, ok := s.Get("k1"); !ok {
		t.Fatal("k1 missing")
	}
	s.Put("k4", []byte("k4"))
	if _, ok := s.Get("k2"); ok {
		t.Fatal("k2 should be the first eviction (least recently used)")
	}
	s.Put("k5", []byte("k5"))
	if _, ok := s.Get("k3"); ok {
		t.Fatal("k3 should be the second eviction")
	}
	for _, k := range []string{"k1", "k4", "k5"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if got, want := s.Keys(), []string{"k5", "k4", "k1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LRU order = %v, want %v", got, want)
	}
	st := s.Stats()
	if st.Evictions != 2 || st.Entries != 3 || st.Puts != 5 {
		t.Fatalf("stats = %+v, want evictions=2 entries=3 puts=5", st)
	}
}

func TestCounters(t *testing.T) {
	s, _ := store.New(4, "")
	s.Put("a", []byte("1"))
	s.Get("a")
	s.Get("b")
	st := s.Stats()
	if st.Hits != 1 || st.MemHits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want hits=1 mem_hits=1 misses=1", st)
	}
}

func TestDiskPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.New(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.Put("deadbeef", []byte("artifact-bytes"))

	// A fresh store over the same dir (a daemon restart) must serve the
	// artifact from disk and promote it into memory.
	s2, err := store.New(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	val, ok := s2.Get("deadbeef")
	if !ok || string(val) != "artifact-bytes" {
		t.Fatalf("disk get = %q, %v", val, ok)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want disk_hits=1", st)
	}
	// Second read is a memory hit.
	if _, ok := s2.Get("deadbeef"); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats = %+v, want mem_hits=1 after promotion", st)
	}
}

func TestCorruptDiskEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	s1, _ := store.New(4, dir)
	s1.Put("cafebabe", []byte("good-bytes"))

	// Corrupt the payload on disk.
	path := filepath.Join(dir, "ca", "cafebabe")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _ := store.New(4, dir)
	if _, ok := s2.Get("cafebabe"); ok {
		t.Fatal("corrupt entry served")
	}
	st := s2.Stats()
	if st.DiskErrors != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want disk_errors=1 misses=1", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
	// The key is recomputable and storable again.
	s2.Put("cafebabe", []byte("recomputed"))
	if val, ok := s2.Get("cafebabe"); !ok || string(val) != "recomputed" {
		t.Fatalf("after recompute: %q, %v", val, ok)
	}
}

func TestTruncatedDiskEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	s1, _ := store.New(4, dir)
	s1.Put("feedface", []byte("payload"))
	path := filepath.Join(dir, "fe", "feedface")
	if err := os.WriteFile(path, []byte("tlsstore1"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := store.New(4, dir)
	if _, ok := s2.Get("feedface"); ok {
		t.Fatal("truncated entry served")
	}
	if st := s2.Stats(); st.DiskErrors != 1 {
		t.Fatalf("stats = %+v, want disk_errors=1", st)
	}
}

// TestTransientDiskErrorKeepsEntry: a read failure that is not verified
// corruption (here: the entry path is unreadable as a flat file because
// it is a directory) is counted as a miss but must NOT delete the entry.
func TestTransientDiskErrorKeepsEntry(t *testing.T) {
	dir := t.TempDir()
	s, _ := store.New(4, dir)
	// Plant a directory where the cache file would live: os.Open succeeds
	// but reading fails with EISDIR — an I/O error, not corruption.
	path := filepath.Join(dir, "ab", "abad1dea")
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("abad1dea"); ok {
		t.Fatal("unreadable entry served")
	}
	st := s.Stats()
	if st.DiskErrors != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want disk_errors=1 misses=1", st)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("transient read error deleted the entry: %v", err)
	}
}

func TestMissingDiskEntryIsMiss(t *testing.T) {
	s, _ := store.New(4, t.TempDir())
	if _, ok := s.Get("0000000000000000"); ok {
		t.Fatal("phantom hit")
	}
	st := s.Stats()
	if st.Misses != 1 || st.DiskErrors != 0 {
		t.Fatalf("stats = %+v, want misses=1 disk_errors=0", st)
	}
}

// detSource carries one hot inter-epoch dependence; small enough that a
// full compile+simulate runs in well under a second.
const detSource = `
var total int;
var out [256]int;

func main() {
	var i int;
	parallel for i = 0; i < 100; i = i + 1 {
		total = total + (i * 7) % 13;
		out[i % 256] = total;
	}
	print(total);
}
`

// simulateOnce compiles detSource and runs policy U, returning the
// canonical serialized artifact.
func simulateOnce(t *testing.T) []byte {
	t.Helper()
	b, err := core.Compile(core.Config{Source: detSource, RefInput: []int64{1, 2, 3}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace(b.Base, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyU()})
	data, err := store.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDeterminism: an artifact served under a key is byte-identical to a
// fresh simulation of the same inputs — through memory and through disk.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates")
	}
	dir := t.TempDir()
	s, _ := store.New(4, dir)
	key := store.Key("result", detSource, "seed=42", "U", "default-machine")

	first := simulateOnce(t)
	s.Put(key, first)

	cached, ok := s.Get(key)
	if !ok {
		t.Fatal("stored artifact missing")
	}
	fresh := simulateOnce(t)
	if !bytes.Equal(cached, fresh) {
		t.Fatalf("cached artifact differs from fresh simulation:\n%s\nvs\n%s", cached, fresh)
	}

	// And through the disk layer alone (fresh store, same dir).
	s2, _ := store.New(4, dir)
	fromDisk, ok := s2.Get(key)
	if !ok {
		t.Fatal("disk artifact missing")
	}
	if !bytes.Equal(fromDisk, fresh) {
		t.Fatal("disk artifact differs from fresh simulation")
	}
}

// TestConcurrentAccess exercises the store under the race detector.
func TestConcurrentAccess(t *testing.T) {
	s, _ := store.New(8, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				if i%2 == 0 {
					s.Put(key, []byte(key))
				} else {
					s.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() > 8 {
		t.Fatalf("len = %d exceeds capacity", s.Len())
	}
}

// TestCorruptEntryQuarantinedNotDeleted: verified corruption moves the
// bytes into quarantine/ (forensic evidence) rather than unlinking
// them, and the move is counted for /readyz.
func TestCorruptEntryQuarantinedNotDeleted(t *testing.T) {
	dir := t.TempDir()
	s1, _ := store.New(4, dir)
	s1.Put("cafebabe", []byte("good-bytes"))

	path := filepath.Join(dir, "ca", "cafebabe")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _ := store.New(4, dir)
	if _, ok := s2.Get("cafebabe"); ok {
		t.Fatal("corrupt entry served")
	}
	if st := s2.Stats(); st.CorruptQuarantined != 1 {
		t.Fatalf("stats = %+v, want corrupt_quarantined=1", st)
	}
	// The corrupt bytes moved, byte-for-byte, into quarantine/.
	moved, err := os.ReadFile(filepath.Join(dir, "quarantine", "cafebabe"))
	if err != nil {
		t.Fatalf("quarantined bytes missing: %v", err)
	}
	if !bytes.Equal(moved, data) {
		t.Fatal("quarantine altered the evidence")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry still at its shard path")
	}
}

// TestScanAtOpen: a fresh store over an existing cache dir knows the
// prior process's entries without reading them, skips malformed names,
// and reaps temp files left by crashed writers.
func TestScanAtOpen(t *testing.T) {
	dir := t.TempDir()
	s1, _ := store.New(4, dir)
	s1.Put("cafebabe", []byte("one"))
	s1.Put("deadbeef", []byte("two"))

	// Debris: a crashed writer's temp, a foreign file, a misfiled entry.
	if err := os.WriteFile(filepath.Join(dir, "ca", ".tmp123"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ca", "notinshard"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _ := store.New(4, dir)
	st := s2.Stats()
	if st.DiskEntries != 2 {
		t.Fatalf("disk_entries = %d, want 2 (stats must reflect prior process)", st.DiskEntries)
	}
	if st.ScanTempsRemoved != 1 {
		t.Fatalf("scan_temps_removed = %d, want 1", st.ScanTempsRemoved)
	}
	if st.ScanSkipped != 2 {
		t.Fatalf("scan_skipped = %d, want 2 (misfiled + stray)", st.ScanSkipped)
	}
	if _, err := os.Stat(filepath.Join(dir, "ca", ".tmp123")); !os.IsNotExist(err) {
		t.Fatal("crashed writer's temp not reaped")
	}
	keys := s2.Keys()
	if !reflect.DeepEqual(keys, []string{"cafebabe", "deadbeef"}) {
		t.Fatalf("keys = %v, want scanned disk keys", keys)
	}
}

// TestScanIgnoresReservedDirs: quarantine/ and journal/ live inside the
// cache dir but are not shards; their contents must not surface as
// entries.
func TestScanIgnoresReservedDirs(t *testing.T) {
	dir := t.TempDir()
	s1, _ := store.New(4, dir)
	s1.Put("cafebabe", []byte("one"))
	for _, sub := range []string{"quarantine", "journal"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, "cadecade"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, _ := store.New(4, dir)
	if st := s2.Stats(); st.DiskEntries != 1 {
		t.Fatalf("disk_entries = %d, want 1 (reserved dirs leaked into scan)", st.DiskEntries)
	}
}

// TestScrubQuarantinesBitRot: the proactive pass finds corruption
// nobody has asked for yet and moves it aside.
func TestScrubQuarantinesBitRot(t *testing.T) {
	dir := t.TempDir()
	s, _ := store.New(1, dir) // capacity 1: "cafebabe" falls out of memory
	s.Put("cafebabe", []byte("rotting"))
	s.Put("deadbeef", []byte("healthy"))

	path := filepath.Join(dir, "ca", "cafebabe")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	checked, quarantined := s.Scrub(context.Background())
	if checked != 2 || quarantined != 1 {
		t.Fatalf("scrub = (%d checked, %d quarantined), want (2, 1)", checked, quarantined)
	}
	st := s.Stats()
	if st.CorruptQuarantined != 1 || st.ScrubChecked != 2 {
		t.Fatalf("stats = %+v, want corrupt_quarantined=1 scrub_checked=2", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "cafebabe")); err != nil {
		t.Fatalf("scrub did not quarantine: %v", err)
	}
	// The healthy entry is untouched and still served.
	if val, ok := s.Get("deadbeef"); !ok || string(val) != "healthy" {
		t.Fatalf("healthy entry after scrub: %q, %v", val, ok)
	}
	// A second pass over the now-clean tier finds nothing.
	if checked, quarantined := s.Scrub(context.Background()); checked != 1 || quarantined != 0 {
		t.Fatalf("second scrub = (%d, %d), want (1, 0)", checked, quarantined)
	}
}

// TestValidKey: exactly the shape Key returns is accepted; anything
// that could name a path outside the shard layout is not.
func TestValidKey(t *testing.T) {
	if k := store.Key("simulate", "gzip_comp", "C"); !store.ValidKey(k) {
		t.Fatalf("store.ValidKey(store.Key(...)) = false for %q", k)
	}
	for _, bad := range []string{
		"", "../escape", "../victim", "ab/cd",
		strings.Repeat("a", 63), strings.Repeat("a", 65),
		strings.Repeat("A", 64), strings.Repeat("g", 64),
		strings.Repeat("a", 62) + "/.",
	} {
		if store.ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
	}
}
