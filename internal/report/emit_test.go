package report

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"anondyn"
)

// captureStdout runs f with os.Stdout redirected to a file and returns
// what f wrote there.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestEmitLayouts pins the one output path of a finished sweep: a
// stdout document is all of stdout; otherwise banner, table, verdicts,
// footer and note, in that order, with the document in the file.
func TestEmitLayouts(t *testing.T) {
	doc := stormSweep()
	var human, jsonDoc bytes.Buffer
	if err := doc.table().Fprint(&human); err != nil {
		t.Fatal(err)
	}
	if err := FprintVerdicts(&human, doc.Verdicts); err != nil {
		t.Fatal(err)
	}
	if err := doc.WriteJSON(&jsonDoc); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	kept := filepath.Join(dir, "streamed.csv")
	if err := os.WriteFile(kept, []byte("rows\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		target         Target
		footer         string
		quiet, stream  bool
		stdout, inFile string // inFile: the target file's content
	}{
		{"stdout document", Target{Format: FormatJSON}, "footer\n", false, false, jsonDoc.String(), ""},
		{"stdout streamed", Target{Format: FormatCSV}, "footer\n", false, true, "", ""},
		{"no report", Target{}, "footer\n", false, false, "# about\n" + human.String() + "footer\n", ""},
		{"file", Target{Format: FormatJSON, Path: path}, "footer\n", false, false,
			"# about\n" + human.String() + "footer\n(report written to " + path + ")\n", jsonDoc.String()},
		{"file quiet", Target{Format: FormatJSON, Path: path}, "", true, false, human.String(), jsonDoc.String()},
		{"file streamed", Target{Format: FormatCSV, Path: kept}, "", false, true,
			"# about\n" + human.String() + "(report written to " + kept + ")\n", "rows\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			os.Remove(path)
			got := captureStdout(t, func() error {
				return Emit(doc, anondyn.Grid{}, tc.target, "about", tc.footer, tc.quiet, tc.stream)
			})
			if got != tc.stdout {
				t.Errorf("stdout:\n%q\nwant\n%q", got, tc.stdout)
			}
			if tc.target.Path == "" {
				return
			}
			data, err := os.ReadFile(tc.target.Path)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != tc.inFile {
				t.Errorf("%s holds\n%q\nwant\n%q", tc.target.Path, data, tc.inFile)
			}
		})
	}
}
