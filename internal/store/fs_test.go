package store

import (
	"os"
	"strings"
	"sync"
	"testing"
)

// recordFS wraps OS and logs every disk-layer operation in order, so
// tests can assert the durable-write protocol (fsync file → rename →
// fsync dir) rather than just the end state.
type recordFS struct {
	mu  sync.Mutex
	ops []string
}

func (r *recordFS) log(op string) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

func (r *recordFS) Ops() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ops...)
}

func (r *recordFS) MkdirAll(path string, perm os.FileMode) error {
	r.log("mkdir")
	return OS.MkdirAll(path, perm)
}

func (r *recordFS) Open(name string) (File, error) {
	fi, err := os.Stat(name)
	kind := "open-file"
	if err == nil && fi.IsDir() {
		kind = "open-dir"
	}
	r.log(kind)
	f, err := OS.Open(name)
	if err != nil {
		return nil, err
	}
	return &recordFile{fs: r, File: f, kind: strings.TrimPrefix(kind, "open-")}, nil
}

func (r *recordFS) OpenAppend(name string) (File, error) {
	r.log("open-append")
	f, err := OS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &recordFile{fs: r, File: f, kind: "append"}, nil
}

func (r *recordFS) ReadDir(name string) ([]os.DirEntry, error) {
	r.log("readdir")
	return OS.ReadDir(name)
}

func (r *recordFS) CreateTemp(dir, pattern string) (File, error) {
	r.log("create-temp")
	f, err := OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &recordFile{fs: r, File: f, kind: "temp"}, nil
}

func (r *recordFS) Rename(oldpath, newpath string) error {
	r.log("rename")
	return OS.Rename(oldpath, newpath)
}

func (r *recordFS) Remove(name string) error {
	r.log("remove")
	return OS.Remove(name)
}

type recordFile struct {
	fs *recordFS
	File
	kind string
}

func (f *recordFile) Sync() error {
	f.fs.log("sync-" + f.kind)
	return f.File.Sync()
}

// TestWriteDiskDurabilityOrder: writeDisk must fsync the temp file
// before renaming it into place and fsync the parent directory after —
// the protocol that keeps a crash from persisting a zero-length entry.
func TestWriteDiskDurabilityOrder(t *testing.T) {
	rec := &recordFS{}
	s, err := NewWithFS(4, t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("test", "durability")
	s.Put(key, []byte("payload"))

	ops := rec.Ops()
	idx := func(op string) int {
		for i, o := range ops {
			if o == op {
				return i
			}
		}
		t.Fatalf("op %q never happened (ops = %v)", op, ops)
		return -1
	}
	syncTemp, rename, syncDir := idx("sync-temp"), idx("rename"), idx("sync-dir")
	if !(syncTemp < rename && rename < syncDir) {
		t.Fatalf("durability order violated: sync-temp@%d rename@%d sync-dir@%d (ops = %v)",
			syncTemp, rename, syncDir, ops)
	}

	// And the entry reads back through the same seam.
	s2, err := NewWithFS(4, s.Dir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

// TestWriteFileAtomicDurabilityOrder: the sidecar-file helper follows
// the same protocol as the artifact store — fsync the temp file, rename
// it into place, fsync the parent directory — and the content reads
// back.
func TestWriteFileAtomicDurabilityOrder(t *testing.T) {
	rec := &recordFS{}
	path := t.TempDir() + "/sub/epoch"
	if err := WriteFileAtomic(rec, path, []byte("7\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	want := []string{"mkdir", "create-temp", "sync-temp", "rename", "open-dir", "sync-dir"}
	if got := rec.Ops(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("ops = %v, want %v", got, want)
	}
	got, err := ReadFile(OS, path)
	if err != nil || string(got) != "7\n" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
}
