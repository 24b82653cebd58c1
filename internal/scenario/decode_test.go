package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateDecoded = flag.Bool("update", false, "rewrite testdata/decoded.golden.json from the current decoder")

const decodedGolden = "testdata/decoded.golden.json"

// decodeEdges are inputs whose decoded form pins a default or a scalar
// coercion that no shipped scenario file exercises.
var decodeEdges = []struct{ name, old, new string }{
	// A present think block starts from Think's defaults (Mean 0), not
	// from the template's default think (100ms).
	{"think-without-mean", "{dist: fixed, mean: 200ms}", "{dist: uniform, min: 10ms, max: 30ms}"},
	{"template-without-think", "      think: {dist: fixed, mean: 200ms}\n", ""},
	{"bench-comma-scalar", "bench: [gzip_comp]", "bench: mcf, gzip_comp"},
	{"fault-without-times", "    times: 5\n", ""},
	{"warm-yes", "  fault_surface: true\n", "  fault_surface: true\n  warm: yes\n"},
	{"fleet-without-startup", "  startup:\n    pattern: wave\n    duration: 2s\n    batches: 4\n", ""},
}

// decodeInputs returns every golden-decode input by name: the shipped
// scenario files, the valid test scenario, and its edge variants.
func decodeInputs(t *testing.T) ([]string, map[string][]byte) {
	t.Helper()
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files: %v", err)
	}
	var names []string
	inputs := make(map[string][]byte)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := "scenarios/" + filepath.Base(f)
		names = append(names, name)
		inputs[name] = data
	}
	names = append(names, "valid")
	inputs["valid"] = []byte(validScenario)
	for _, e := range decodeEdges {
		names = append(names, e.name)
		inputs[e.name] = []byte(replace(t, e.old, e.new))
	}
	return names, inputs
}

// TestDecodedGolden pins the decoder's output: json.Marshal of every
// parsed input must match the golden file byte for byte, so a decoder
// change cannot silently move a default, a key or a coercion.
func TestDecodedGolden(t *testing.T) {
	names, inputs := decodeInputs(t)
	type entry struct {
		Input    string          `json:"input"`
		Scenario json.RawMessage `json:"scenario"`
	}
	var got []entry
	for _, name := range names {
		sc, err := Parse(name, inputs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		got = append(got, entry{name, b})
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *updateDecoded {
		if err := os.WriteFile(decodedGolden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(decodedGolden)
	if err != nil {
		t.Fatalf("missing golden file (generate with `go test -run TestDecodedGolden -update ./internal/scenario/`): %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("decoded scenarios diverged from %s\ngot:\n%s", decodedGolden, out)
	}
}

// FuzzParse feeds arbitrary bytes through the YAML parser, the
// reflective decoder and validation. Parse must never panic, and an
// accepted scenario must marshal (the report embeds it).
func FuzzParse(f *testing.F) {
	files, _ := filepath.Glob("../../scenarios/*.yaml")
	for _, file := range files {
		if data, err := os.ReadFile(file); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(validScenario))
	for _, m := range [][2]string{
		{"  count: 1", "  coutn: 1"},
		{"duration: 10s", "duration: -10s"},
		{"duration: 10s", "duration: ten seconds"},
		{"{dist: exp, mean: 50ms}", "{dist: exp, mean: fast}"},
		{"weight: 0.75", "weight: heavy"},
		{"restart: true", "restart: maybe"},
		{"seed: 7", "seed: -7"},
		{"clients: 8", "clients: [8]"},
		{"  templates:", "  templates: none\n  x:"},
		{"faults:", "faults: {at: 1s}\nx:"},
		{"benchmarks: [gzip_comp, mcf]", "benchmarks: {a: b}"},
		{"max_error_rate: 0.1", "max_error_rate:\n    nested: 1"},
	} {
		f.Add([]byte(strings.Replace(validScenario, m[0], m[1], 1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse("fuzz.yaml", data)
		if err != nil {
			return
		}
		if _, err := json.Marshal(sc); err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
	})
}
