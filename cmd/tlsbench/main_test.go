package main

import (
	"strings"
	"testing"
)

// TestSelectExperiments: every flag combination either names the
// experiments to render or is rejected; none silently falls back to
// regenerating everything or to text output.
func TestSelectExperiments(t *testing.T) {
	all := "2 6 7 8 9 10 11 12 T2"
	for _, tc := range []struct {
		fig, table, format string
		want               string // ids joined by spaces; "table1"; or "error"
	}{
		{"", "", "text", all},
		{"", "", "csv", all},
		{"8", "", "text", "8"},
		{"10", "", "csv", "10"},
		{"T2", "", "text", "T2"},
		{"", "1", "text", "table1"},
		{"", "2", "text", "T2"},
		{"", "3", "text", "error"},
		{"", "", "xml", "error"},
		{"8", "", "xml", "error"},
		{"8", "2", "text", "error"},
		{"8", "1", "text", "error"},
		{"99", "", "text", "error"},
	} {
		ids, table1, err := selectExperiments(tc.fig, tc.table, tc.format)
		got := strings.Join(ids, " ")
		switch {
		case err != nil:
			got = "error"
		case table1:
			got = "table1"
		}
		if got != tc.want {
			t.Errorf("-fig %q -table %q -format %q: got %s (err %v), want %s",
				tc.fig, tc.table, tc.format, got, err, tc.want)
		}
	}
}
