package spec

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"anondyn/examples/specs"
)

// committedSpecs returns every committed spec file keyed by its golden
// name: the embedded examples (examples/…, examples/stress/…) and the
// benchmark's frozen specs (benchmark/…), which are only read here.
func committedSpecs(t testing.TB) map[string][]byte {
	out := make(map[string][]byte)
	for _, name := range specs.Names() {
		data, err := specs.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		out["examples/"+name] = data
	}
	paths, err := filepath.Glob("../../benchmark/specs/*.yaml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("benchmark specs: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out["benchmark/"+filepath.Base(p)] = data
	}
	return out
}

// TestEncodeGolden pins the canonical encoding: Encode(Parse(file))
// of every committed spec equals its file under testdata/encode, so a
// change to the codec cannot move a saved spec's bytes unnoticed.
func TestEncodeGolden(t *testing.T) {
	for name, data := range committedSpecs(t) {
		t.Run(name, func(t *testing.T) {
			sw, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "encode", name))
			if err != nil {
				t.Fatal(err)
			}
			if got := sw.Encode(); !bytes.Equal(got, want) {
				t.Errorf("encoding moved:\n--- got\n%s\n--- want\n%s", got, want)
			}
		})
	}
}

// keyPaths lists every tagged key reachable from t, as the README's
// key reference spells it: nested keys joined by ".", list items
// marked "[]", embedded structs read inline.
func keyPaths(t reflect.Type, prefix string) []string {
	var out []string
	for _, f := range fieldsOf(t) {
		ft := t.Field(f.index).Type
		if f.inline {
			out = append(out, keyPaths(ft, prefix)...)
			continue
		}
		path := prefix + f.key
		out = append(out, path)
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
			if ft.Kind() == reflect.Slice {
				path += "[]"
			}
			ft = ft.Elem()
		}
		if _, custom := scalarCodecs[ft]; ft.Kind() == reflect.Struct && !custom {
			out = append(out, keyPaths(ft, path+".")...)
		}
	}
	return out
}

// TestREADMEKeyReference: every tagged key has a row in the README's
// key reference, so a new key cannot land undocumented.
func TestREADMEKeyReference(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		first := strings.Split(line, "|")[1]
		for _, key := range strings.Split(first, ",") {
			documented[strings.Trim(key, " `")] = true
		}
	}
	for _, path := range keyPaths(reflect.TypeOf(Sweep{}), "") {
		if !documented[path] {
			t.Errorf("README key reference has no row for %s", path)
		}
	}
}
