package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden-fixture suite: testdata/lint is a self-contained module
// (lintfixtures) with one package per rule, each seeding violations
// marked by expected-diagnostic comments and compliant forms that must
// stay silent. The analyzers run with a fixture-local Config, so the
// fixtures pin analyzer behavior independently of the repo's own
// contract surface (RepoConfig).
//
// Comment forms, matched against raw source lines:
//
//	... // want D001 "message substring"     diagnostic on this line
//	// wantbelow I001 "message substring"    diagnostic on the next line
//
// wantbelow exists for I001: a //lint:ignore directive consumes its
// whole line, so its expectation must sit above it.

// fixtureConfig mirrors RepoConfig's shape onto the fixture module.
func fixtureConfig() *Config {
	return &Config{
		DetScope: Scope{Packages: []string{
			"lintfixtures/d001",
			"lintfixtures/suppression",
			"lintfixtures/fixable",
		}},
		DetForbiddenCalls: []string{"time.Now", "time.Since", "os.Getenv"},
		KeyStructs:        []string{"lintfixtures/k001.Key"},
		MarshalFuncs:      []string{"encoding/json.Marshal"},
		SeamScope: Scope{
			Packages:  []string{"lintfixtures/s001"},
			SkipFiles: map[string][]string{"lintfixtures/s001": {"seam.go"}},
		},
		OSFuncs: []string{
			"os.Create", "os.WriteFile", "os.ReadFile", "os.OpenFile",
			"os.Rename", "os.Remove", "os.MkdirAll",
		},
		JournalScope:            Scope{Packages: []string{"lintfixtures/j001"}},
		EnqueueFuncs:            []string{"lintfixtures/j001.Engine.Do"},
		BeginFuncs:              []string{"lintfixtures/j001.Journal.Begin"},
		NonJournaledKeyPrefixes: []string{"prepare/"},
		ExecuteFuncs:            []string{"lintfixtures/j001.Run.SimulateSpec"},
		LeaseFuncs:              []string{"lintfixtures/j001.server.acquireLease"},
		LockScope:               Scope{Packages: []string{"lintfixtures/l001"}},
		SlowCallFuncs:           []string{"lintfixtures/l001.fsyncAll"},
	}
}

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	rule    string
	substr  string
	matched bool
}

var wantRe = regexp.MustCompile(`// want(below)? ([A-Z]\d+) "([^"]*)"`)

// collectWants scans every fixture source file for expectation comments.
func collectWants(t *testing.T, pkgs []*Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, path := range pkg.GoFiles {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					w := &want{file: path, line: i + 1, rule: m[2], substr: m[3]}
					if m[1] == "below" {
						w.line++
					}
					wants = append(wants, w)
				}
			}
		}
	}
	return wants
}

func loadFixtures(t *testing.T, dir string) []*Package {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(abs, "./...")
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no fixture packages loaded")
	}
	return pkgs
}

// TestGoldenFixtures checks the analyzers against the fixture corpus:
// every expectation comment must be satisfied by exactly one
// diagnostic, and every diagnostic must be claimed by an expectation —
// seeded violations are flagged, compliant forms stay silent, and
// suppression/I001 behaves as documented.
func TestGoldenFixtures(t *testing.T) {
	pkgs := loadFixtures(t, filepath.Join("..", "..", "testdata", "lint"))
	diags := Run(pkgs, fixtureConfig())
	wants := collectWants(t, pkgs)
	if len(wants) == 0 {
		t.Fatal("no expectation comments found in fixtures")
	}

	rulesSeen := make(map[string]bool)
	for _, d := range diags {
		rulesSeen[d.Rule] = true
		claimed := false
		for _, w := range wants {
			if w.matched || w.file != d.File || w.line != d.Line || w.rule != d.Rule {
				continue
			}
			if !strings.Contains(d.Message, w.substr) {
				t.Errorf("%s:%d: [%s] message %q does not contain expected substring %q",
					relFixture(d.File), d.Line, d.Rule, d.Message, w.substr)
			}
			w.matched = true
			claimed = true
			break
		}
		if !claimed {
			t.Errorf("unexpected diagnostic (no matching want comment):\n\t%s:%d:%d: [%s] %s",
				relFixture(d.File), d.Line, d.Col, d.Rule, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected [%s] diagnostic containing %q, got none",
				relFixture(w.file), w.line, w.rule, w.substr)
		}
	}

	// Every rule, plus the driver's own I001, must be exercised.
	for _, rule := range []string{RuleDeterminism, RuleKeyPurity, RuleSeamBypass, RuleJournal, RuleLockHygiene, RuleIgnore} {
		if !rulesSeen[rule] {
			t.Errorf("fixture corpus produced no %s diagnostic; the rule is untested", rule)
		}
	}
}

// relFixture trims the absolute prefix for readable failure output.
func relFixture(path string) string {
	if i := strings.Index(path, filepath.Join("testdata", "lint")); i >= 0 {
		return path[i:]
	}
	return path
}

// TestSortedKeysFixGolden proves `tlslint -fix` end to end: copy the
// fixable package into a scratch module, apply the mechanical
// sorted-keys rewrite, byte-compare the result against
// fixable.go.golden, and re-lint the rewritten module clean. Run with
// TLSLINT_UPDATE_GOLDEN=1 to regenerate the golden file.
func TestSortedKeysFixGolden(t *testing.T) {
	fixtureDir := filepath.Join("..", "..", "testdata", "lint")
	src, err := os.ReadFile(filepath.Join(fixtureDir, "fixable", "fixable.go"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.MkdirAll(filepath.Join(tmp, "fixable"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module lintfixtures\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(tmp, "fixable", "fixable.go")
	if err := os.WriteFile(target, src, 0o644); err != nil {
		t.Fatal(err)
	}

	pkgs := loadFixtures(t, tmp)
	diags := Run(pkgs, fixtureConfig())
	var fixes int
	for _, d := range diags {
		if d.Rule != RuleDeterminism {
			t.Errorf("unexpected non-D001 diagnostic in fixable: %s", d)
		}
		if d.Fix != nil {
			fixes++
			if d.Suggestion == "" {
				t.Error("fix-carrying diagnostic has no human-readable suggestion")
			}
		}
	}
	if fixes == 0 {
		t.Fatal("fixable seeded no fix-carrying diagnostic")
	}
	applied, err := ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if applied != fixes {
		t.Fatalf("applied %d of %d fixes", applied, fixes)
	}

	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join(fixtureDir, "fixable", "fixable.go.golden")
	if os.Getenv("TLSLINT_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenPath)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with TLSLINT_UPDATE_GOLDEN=1 to create it)", err)
	}
	if string(got) != string(golden) {
		t.Errorf("rewritten fixable.go differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}

	// The rewrite must fully resolve the finding.
	re := Run(loadFixtures(t, tmp), fixtureConfig())
	if len(re) != 0 {
		var sb strings.Builder
		for _, d := range re {
			fmt.Fprintf(&sb, "\n\t%s", d)
		}
		t.Errorf("re-lint after -fix still reports %d finding(s):%s", len(re), sb.String())
	}
}
