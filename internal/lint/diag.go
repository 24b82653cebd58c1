// Package lint is a hand-rolled static-analysis driver for the repo's
// own load-bearing invariants. Where internal/verify re-proves the
// synchronization soundness of each compiled binary, this package
// re-proves the properties of the *codebase* that every dynamic suite
// assumes: byte-determinism of artifact and report bytes (D001),
// store-key purity (K001), fault-seam coverage (S001), journal-before-
// execute ordering (J001), and lock hygiene on slow paths (L001).
//
// It is built on stdlib go/ast + go/parser + go/types only (the same
// zero-dependency stance as the YAML parser), loads type information
// through `go list -export` export data, and renders structured,
// positional, rule-ID diagnostics in the internal/verify style.
// Findings are suppressed — never silenced — with an inline
//
//	//lint:ignore RULE reason
//
// comment on (or immediately above) the offending line; a suppression
// without a reason, or one that matches nothing, is itself a finding
// (I001), so the suppression surface cannot rot.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Rule identifiers, one per analyzer. I001 is emitted by the driver
// itself for malformed or unused suppressions.
const (
	RuleDeterminism = "D001" // map-order / wall-clock escapes into deterministic bytes
	RuleKeyPurity   = "K001" // store-key struct field hygiene
	RuleSeamBypass  = "S001" // direct os.* filesystem calls in seam-owning packages
	RuleJournal     = "J001" // job enqueue not dominated by a journal begin, or simulation by a lease
	RuleLockHygiene = "L001" // mutex held across network/fsync/journal calls
	RuleIgnore      = "I001" // malformed or unused //lint:ignore
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Rule    string         `json:"rule"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`

	// Suggestion, when non-empty, is a human-readable rewrite that
	// would silence the finding (the sorted-keys form for D001).
	Suggestion string `json:"suggestion,omitempty"`

	// Fix, when non-nil, is a mechanical byte-offset patch that
	// `tlslint -fix` can apply.
	Fix *Fix `json:"-"`
}

// Fix is a set of byte-offset edits within one file that resolves a
// diagnostic mechanically.
type Fix struct {
	File  string
	Edits []Edit
}

// Edit replaces file bytes [Start, End) with New. Offsets are relative
// to the file content at analysis time.
type Edit struct {
	Start int
	End   int
	New   string
}

// String renders the diagnostic vet-style:
// "file:line:col: [RULE] message".
func (d Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Message)
	if d.Suggestion != "" {
		fmt.Fprintf(&sb, "\n\tsuggestion: %s", strings.ReplaceAll(d.Suggestion, "\n", "\n\t            "))
	}
	return sb.String()
}

// sortDiags orders findings by position then rule, so output is stable
// across runs — the analyzer holds itself to the determinism contract
// it enforces.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// RenderJSON renders the findings as a JSON report (an array, one
// object per diagnostic, position-sorted).
func RenderJSON(diags []Diagnostic) ([]byte, error) {
	sortDiags(diags)
	if diags == nil {
		diags = []Diagnostic{}
	}
	return json.MarshalIndent(diags, "", "  ")
}
