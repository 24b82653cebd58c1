package journal

import (
	"errors"
	"testing"

	"tlssync/internal/store"
)

// dirOpenFailFS fails Open of one directory while armed, which makes
// WriteFileAtomic's parent-directory sync fail after its rename.
type dirOpenFailFS struct {
	store.FS
	dir   string
	armed bool
}

func (f *dirOpenFailFS) Open(name string) (store.File, error) {
	if f.armed && name == f.dir {
		return nil, errors.New("injected: cannot open directory")
	}
	return f.FS.Open(name)
}

// TestCompactionReopensAfterDirSyncFailure: a compaction whose
// directory sync fails after the rename still leaves the journal with
// a working append handle on the new log.
func TestCompactionReopensAfterDirSyncFailure(t *testing.T) {
	dir := t.TempDir()
	fsys := &dirOpenFailFS{FS: store.OS, dir: dir}
	j, err := Open(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Begin(Record{Key: "simulate/a/C", Kind: "simulate", Bench: "a", Label: "C"})
	j.rotateAt = 1
	fsys.armed = true
	j.Begin(Record{Key: "simulate/b/C", Kind: "simulate", Bench: "b", Label: "C"})
	if st := j.Stats(); st.AppendErrors != 1 {
		t.Fatalf("stats = %+v, want the failed compaction counted once", st)
	}
	fsys.armed = false
	j.rotateAt = DefaultRotateBytes
	j.Begin(Record{Key: "simulate/c/C", Kind: "simulate", Bench: "c", Label: "C"})
	if st := j.Stats(); st.AppendErrors != 1 {
		t.Fatalf("append after the failed compaction: stats = %+v", st)
	}
	st, _, err := ReplayFile(store.OS, j.path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pending) != 3 {
		t.Fatalf("replayed %d pending records, want 3", len(st.Pending))
	}
}
