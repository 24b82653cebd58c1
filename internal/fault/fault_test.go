package fault

import (
	"errors"
	"os"
	"testing"
	"time"

	"tlssync/internal/store"
)

func TestRegistryFire(t *testing.T) {
	r := NewRegistry()
	if err := r.Fire("unarmed"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}

	boom := errors.New("boom")
	r.Arm("p", Fault{Err: boom, Times: 2})
	for i := 0; i < 2; i++ {
		if err := r.Fire("p"); !errors.Is(err, boom) {
			t.Fatalf("firing %d = %v, want boom", i, err)
		}
	}
	if err := r.Fire("p"); err != nil {
		t.Fatalf("exhausted fault still fires: %v", err)
	}
	if got := r.Fired("p"); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}

	r.Arm("q", Fault{Err: boom})
	r.Disarm("q")
	if err := r.Fire("q"); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
}

func TestRegistryPanicAndLatency(t *testing.T) {
	r := NewRegistry()
	r.Arm("p", Fault{Panic: "chaos"})
	func() {
		defer func() {
			if got := recover(); got != "chaos" {
				t.Errorf("recover = %v, want chaos", got)
			}
		}()
		r.Fire("p")
		t.Error("Fire returned instead of panicking")
	}()

	r.Arm("slow", Fault{Latency: 30 * time.Millisecond})
	start := time.Now()
	if err := r.Fire("slow"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency fault slept only %v", d)
	}
}

// TestCrashRenameDurability: the store's fsync-before-rename protocol
// is what makes an entry survive a crash around the rename. With the
// crash fault armed, a synced write reads back intact on "restart";
// the test also proves the fault itself works by writing an unsynced
// file directly and observing the zero-length wreckage.
func TestCrashRenameDurability(t *testing.T) {
	reg := NewRegistry()
	ffs := &FS{R: reg}
	dir := t.TempDir()

	s, err := store.NewWithFS(4, dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	key := store.Key("test", "crash")
	reg.Arm("fs.rename", Fault{Crash: true})
	s.Put(key, []byte("survives"))

	// "Restart": a fresh store over the same directory, clean fs.
	s2, err := store.NewWithFS(4, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok || string(got) != "survives" {
		t.Fatalf("after crash-rename of a synced entry: Get = %q, %v (want survives)", got, ok)
	}
	if st := s2.Stats(); st.DiskErrors != 0 {
		t.Fatalf("disk errors after synced crash-rename: %+v", st)
	}

	// Control: an unsynced file renamed under the same fault is wrecked
	// (zero-length destination) — the state the protocol defends against.
	reg.Arm("fs.rename", Fault{Crash: true})
	tmp, err := ffs.CreateTemp(dir, ".raw*")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Write([]byte("lost"))
	tmp.Close() // no Sync
	dst := dir + "/unsynced"
	if err := ffs.Rename(tmp.Name(), dst); err != nil {
		t.Fatal(err)
	}
	f, err := store.OS.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 8)
	if n, _ := f.Read(buf); n != 0 {
		t.Fatalf("unsynced crash-rename kept %d bytes (%q), want 0", n, buf[:n])
	}
}

// TestWriteFileAtomicSurvivesCrashRename: store.WriteFileAtomic syncs
// its temp file before the rename, so a simulated machine crash around
// the rename keeps the new content instead of leaving an empty file
// (the cluster epoch file goes through this helper: an empty epoch
// file restarts the boot epoch at 1).
func TestWriteFileAtomicSurvivesCrashRename(t *testing.T) {
	reg := NewRegistry()
	ffs := &FS{R: reg}
	path := t.TempDir() + "/epoch"
	reg.Arm("fs.rename", Fault{Crash: true})
	if err := store.WriteFileAtomic(ffs, path, []byte("7\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := store.ReadFile(store.OS, path)
	if err != nil || string(got) != "7\n" {
		t.Fatalf("after crash-rename: ReadFile = %q, %v (want \"7\\n\")", got, err)
	}
}

// TestFSErrorInjection: armed fs faults surface through the store as
// transient disk errors without corrupting the in-memory layer.
func TestFSErrorInjection(t *testing.T) {
	reg := NewRegistry()
	s, err := store.NewWithFS(4, t.TempDir(), &FS{R: reg})
	if err != nil {
		t.Fatal(err)
	}
	key := store.Key("test", "inject")

	reg.Arm("fs.create", Fault{Err: errors.New("injected ENOSPC")})
	s.Put(key, []byte("v")) // disk write fails, memory still serves
	if got, ok := s.Get(key); !ok || string(got) != "v" {
		t.Fatalf("memory layer lost the entry: %q, %v", got, ok)
	}
	if st := s.Stats(); st.DiskErrors == 0 {
		t.Fatalf("injected create fault not counted: %+v", st)
	}
	reg.Reset()

	// With the fault cleared the same Put persists.
	s.Put(key, []byte("v"))
	s2, err := store.NewWithFS(4, s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("entry not on disk after fault cleared")
	}
}

// TestCrashTornWrite: a Crash fault at fs.write lands only a prefix of
// the bytes and reports a crash — the torn-append shape a real SIGKILL
// leaves in a journal. Without a killer installed the caller survives
// to observe the error.
func TestCrashTornWrite(t *testing.T) {
	r := NewRegistry()
	ffs := &FS{R: r}
	dir := t.TempDir()
	fl, err := ffs.CreateTemp(dir, ".w")
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	payload := []byte("0123456789abcdef")
	r.Arm("fs.write", Fault{Crash: true, Times: 1})
	n, err := fl.Write(payload)
	if !errors.Is(err, errCrashed) {
		t.Fatalf("torn write err = %v, want errCrashed", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write landed %d bytes, want %d", n, len(payload)/2)
	}
	if err := fl.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(fl.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "01234567" {
		t.Fatalf("on-disk bytes = %q, want the prefix only", data)
	}
	// The fault was Times:1 — the next write is whole.
	if _, err := fl.Write(payload); err != nil {
		t.Fatalf("write after torn write: %v", err)
	}
}

// TestKillerInvokedOnCrash: with a killer installed, Crash faults call
// it (the harness installs SIGKILL-self; here we just observe the call).
func TestKillerInvokedOnCrash(t *testing.T) {
	r := NewRegistry()
	called := 0
	r.SetKiller(func() { called++ })
	if !r.Kill() {
		t.Fatal("Kill with killer installed returned false")
	}
	r.SetKiller(nil)
	if r.Kill() {
		t.Fatal("Kill with killer removed returned true")
	}
	if called != 1 {
		t.Fatalf("killer called %d times, want 1", called)
	}
}
