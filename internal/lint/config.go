package lint

import "path/filepath"

// Scope names the packages (and optionally the files within them) a
// rule applies to. A rule runs on a file when its package is listed
// and the file's basename passes the Only/Skip filters.
type Scope struct {
	// Packages are exact import paths.
	Packages []string
	// OnlyFiles, when a package has an entry, restricts the rule to
	// those basenames within it (a package that is only partially under
	// a contract, like internal/scenario's deterministic half).
	OnlyFiles map[string][]string
	// SkipFiles exempts basenames within a package (the file that *is*
	// the seam implementation, for S001).
	SkipFiles map[string][]string
}

// HasPackage reports whether the scope covers pkgPath at all.
func (s Scope) HasPackage(pkgPath string) bool {
	for _, p := range s.Packages {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// HasFile reports whether the scope covers the given file of pkgPath.
func (s Scope) HasFile(pkgPath, file string) bool {
	if !s.HasPackage(pkgPath) {
		return false
	}
	base := filepath.Base(file)
	if only, ok := s.OnlyFiles[pkgPath]; ok {
		found := false
		for _, f := range only {
			if f == base {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for _, f := range s.SkipFiles[pkgPath] {
		if f == base {
			return false
		}
	}
	return true
}

// Config parameterizes the analyzers with the repo's contract surface.
// Functions and methods are named by ID: "pkgpath.Func" for package
// functions, "pkgpath.Type.Method" for methods (pointer receivers
// dereferenced), matching funcID.
type Config struct {
	// ---- D001 determinism ----

	// DetScope is the set of packages whose outputs are under the
	// byte-determinism contract (IR, simulation results, fingerprints,
	// deterministic report sections).
	DetScope Scope
	// DetForbiddenCalls are wall-clock / environment functions that must
	// not execute inside DetScope (time.Now and friends). Global
	// math/rand functions are always forbidden in DetScope; seeded
	// *rand.Rand methods are fine.
	DetForbiddenCalls []string

	// ---- K001 key-purity ----

	// KeyStructs are struct types whose JSON marshaling feeds
	// content-addressed store keys, named "pkgpath.TypeName". Every
	// field must carry an explicit json tag (or `json:"-"`), and the
	// struct must not have unexported fields (they would influence
	// behavior while being invisible to the key).
	KeyStructs []string
	// MarshalFuncs identify artifact-content producers: a function
	// whose body calls one of these must not read a `json:"-"` field of
	// a key struct: what the key excludes must not reach the bytes it
	// addresses.
	MarshalFuncs []string

	// ---- S001 seam-bypass ----

	// SeamScope is the set of packages that own (or sit above) a
	// store.FS fault seam; direct os.* filesystem calls there dodge
	// fault injection and the crash harness.
	SeamScope Scope
	// OSFuncs are the direct filesystem entry points S001 flags.
	OSFuncs []string

	// ---- J001 journal-order ----

	// JournalScope is where the journal-before-execute contract holds.
	JournalScope Scope
	// EnqueueFuncs submit recoverable work (the job engine's Do).
	EnqueueFuncs []string
	// BeginFuncs are the write-ahead intents that must dominate an
	// enqueue.
	BeginFuncs []string
	// NonJournaledKeyPrefixes exempt enqueues whose key argument starts
	// with one of these literal prefixes (idempotent, re-derivable jobs
	// like compile/prepare that crash recovery regenerates on demand).
	NonJournaledKeyPrefixes []string

	// ---- L001 lock-hygiene ----

	// LockScope is where mutexes must not be held across slow calls.
	LockScope Scope
	// SlowCallPkgs flag any call into these packages while a mutex is
	// held (network I/O).
	SlowCallPkgs []string
	// SlowCallFuncs flag specific functions/methods (fsync, journal
	// appends) while a mutex is held.
	SlowCallFuncs []string
}

// RepoConfig is the contract surface of this repository: which
// packages are under the determinism contract, which structs are store
// keys, which packages own fault seams, and where the journal-order
// and lock-hygiene rules apply. cmd/tlslint runs with exactly this
// configuration; the golden-fixture tests run the same analyzers with
// a fixture-local configuration.
func RepoConfig() *Config {
	return &Config{
		DetScope: Scope{
			Packages: []string{
				"tlssync",
				"tlssync/internal/alias",
				"tlssync/internal/cfg",
				"tlssync/internal/core",
				"tlssync/internal/depgraph",
				"tlssync/internal/interp",
				"tlssync/internal/ir",
				"tlssync/internal/lang",
				"tlssync/internal/lower",
				"tlssync/internal/memsync",
				"tlssync/internal/opt",
				"tlssync/internal/profile",
				"tlssync/internal/progen",
				"tlssync/internal/regions",
				"tlssync/internal/report",
				"tlssync/internal/scalarsync",
				"tlssync/internal/scenario",
				"tlssync/internal/sim",
				"tlssync/internal/trace",
				"tlssync/internal/verify",
				"tlssync/internal/workloads",
			},
			// internal/scenario is split: plan expansion, spec parsing and
			// the deterministic report sections are under the contract;
			// runner.go/metrics.go are the measured (wall-clock) half.
			OnlyFiles: map[string][]string{
				"tlssync/internal/scenario": {
					"assert.go", "plan.go", "report.go", "scenario.go", "yaml.go",
				},
			},
		},
		DetForbiddenCalls: []string{
			"time.Now", "time.Since", "time.Until",
			"runtime.GOMAXPROCS", "runtime.NumCPU",
			"os.Getenv", "os.Environ",
		},
		KeyStructs: []string{
			"tlssync/internal/core.Config",
			"tlssync/internal/sim.MachineConfig",
		},
		MarshalFuncs: []string{
			"tlssync/internal/store.Marshal",
			"tlssync/internal/store.Key",
			"encoding/json.Marshal",
		},
		SeamScope: Scope{
			Packages: []string{
				"tlssync/internal/store",
				"tlssync/internal/journal",
				"tlssync/internal/cluster",
				"tlssync/cmd/tlsd",
			},
			// fs.go IS the seam: the osFS implementation behind store.OS.
			SkipFiles: map[string][]string{
				"tlssync/internal/store": {"fs.go"},
			},
		},
		OSFuncs: []string{
			"os.Create", "os.CreateTemp", "os.WriteFile", "os.OpenFile",
			"os.Open", "os.ReadFile", "os.ReadDir", "os.Rename",
			"os.Remove", "os.RemoveAll", "os.MkdirAll", "os.Mkdir",
		},
		JournalScope: Scope{
			Packages: []string{"tlssync/cmd/tlsd"},
		},
		EnqueueFuncs: []string{"tlssync/internal/jobs.Engine.Do"},
		BeginFuncs: []string{
			"tlssync/cmd/tlsd.server.journalBegin",
			"tlssync/internal/journal.Journal.Begin",
		},
		NonJournaledKeyPrefixes: []string{"prepare/"},
		LockScope: Scope{
			Packages: []string{
				"tlssync/cmd/tlsd",
				"tlssync/internal/cluster",
				"tlssync/internal/jobs",
				"tlssync/internal/resilience",
				"tlssync/internal/store",
			},
		},
		SlowCallPkgs: []string{"net/http", "net"},
		SlowCallFuncs: []string{
			"os.File.Sync",
			"tlssync/internal/store.File.Sync",
			"tlssync/internal/journal.Journal.Begin",
			"tlssync/internal/journal.Journal.Commit",
			"tlssync/internal/journal.Journal.Poison",
			"tlssync/internal/journal.Journal.Close",
		},
	}
}
