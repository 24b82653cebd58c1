package store

import (
	"io"
	"os"
	"path/filepath"
)

// FS abstracts the filesystem operations the disk layer performs. It
// exists as a seam: production code uses OS, while chaos tests inject a
// wrapper (internal/fault.FS) that fires fault hooks — errors, panics,
// latency, simulated crashes — around each operation. The journal
// (internal/journal) shares the seam: OpenAppend backs its write-ahead
// log and ReadDir backs the store's startup scan and scrubber.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	Open(name string) (File, error)
	OpenAppend(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// File is the subset of *os.File the disk layer uses. Open on a
// directory must return a File whose Sync flushes the directory entry
// metadata (the durable-rename protocol in writeDisk relies on it).
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Name() string
	Sync() error
}

// ReadFile reads the named file through the seam (os.ReadFile would
// bypass fault injection). Not-found errors satisfy os.IsNotExist.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// WriteFileAtomic writes data to path through the seam with the
// durable-rename protocol: a same-directory temp file, fsynced before
// the rename, then an fsync of the parent directory after it. A
// concurrent reader sees either nothing or the complete content, and a
// crash at any point leaves either the old file or the new one — never
// a renamed-but-empty file (renaming unsynced data can persist the
// rename's metadata without the data). A non-nil error from the
// directory sync means the rename already happened: the new content is
// in place but its name may not survive a crash. Parent directories
// are created as needed; a chaos FS can inject a failure (or a
// simulated crash) at every step.
func WriteFileAtomic(fsys FS, path string, data []byte, dirPerm os.FileMode) error {
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, dirPerm); err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(name, path)
	}
	if err != nil {
		fsys.Remove(name)
		return err
	}
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }
