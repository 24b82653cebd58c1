package tlssync

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tlssync/internal/core"
	"tlssync/internal/sim"
)

// The K001 contract, checked dynamically: every field of the structs
// whose JSON feeds content-addressed store keys carries an explicit
// json tag (membership in the key is a decision, not an accident of
// field naming), and mutating any `json:"-"` field — a knob that
// changes wall-clock time but no artifact — must perturb neither the
// marshaled bytes nor the resulting artifact key. tlslint proves the same
// statically; this test is the runtime twin that would also catch a
// custom MarshalJSON leaking an excluded field.

// mutateField sets v's field i to an arbitrary non-zero value.
func mutateField(v reflect.Value, i int) bool {
	f := v.Field(i)
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 7919)
	case reflect.Uint64:
		f.SetUint(f.Uint() + 7919)
	case reflect.Float64:
		f.SetFloat(f.Float() + 0.5)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.String:
		f.SetString(f.String() + "-mutated")
	default:
		return false
	}
	return true
}

func checkKeyStruct(t *testing.T, name string, zero any, key func(any) string) {
	t.Helper()
	typ := reflect.TypeOf(zero)
	baseJSON, err := json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	baseKey := key(zero)
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		tag, ok := field.Tag.Lookup("json")
		if !ok {
			t.Errorf("%s.%s has no explicit json tag: key membership must be a decision", name, field.Name)
			continue
		}
		if tag != "-" && !strings.HasPrefix(tag, "-,") {
			continue
		}
		twin := reflect.New(typ).Elem()
		twin.Set(reflect.ValueOf(zero))
		if !mutateField(twin, i) {
			t.Errorf("%s.%s: unsupported kind %s in mutation twin", name, field.Name, field.Type.Kind())
			continue
		}
		mutated := twin.Interface()
		gotJSON, err := json.Marshal(mutated)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(baseJSON) {
			t.Errorf("%s.%s is tagged json:\"-\" but mutating it changed the marshaled bytes:\n%s\n%s",
				name, field.Name, baseJSON, gotJSON)
		}
		if got := key(mutated); got != baseKey {
			t.Errorf("%s.%s is key-excluded but mutating it changed the artifact key: %s -> %s",
				name, field.Name, baseKey, got)
		}
	}
}

func TestKeyExcludedFieldsNeverPerturbKeys(t *testing.T) {
	cfg := core.Config{
		Source:     "func main() { print(1); }",
		TrainInput: []int64{2, 7, 1},
		RefInput:   []int64{3, 1, 4},
		Seed:       42,
	}.Canonical()
	checkKeyStruct(t, "core.Config", cfg, func(v any) string {
		return artifactKey("sim", v.(core.Config), "base")
	})
	checkKeyStruct(t, "sim.MachineConfig", sim.DefaultMachine(), func(v any) string {
		// MachineConfig reaches keys via its marshaled form inside
		// artifactKey; key on the bytes directly.
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	})
}
