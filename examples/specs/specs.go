// Package specs embeds the repository's committed sweep definitions.
// Every experiment matrix in internal/experiments is backed by one of
// these files — the YAML is the source of truth for the cells an
// experiment runs — and the CI specs job smoke-runs each file on every
// commit (dyna sweep -spec-dir examples/specs -seeds 1), so a committed
// scenario can never rot.
package specs

import (
	"embed"
	"sort"
)

//go:embed *.yaml stress/*.yaml
var files embed.FS

// Names returns the committed spec filenames, sorted. Storm specs live
// in the stress/ subdirectory and are named with that prefix
// ("stress/cascading-failure.yaml").
func Names() []string {
	var names []string
	for _, dir := range []string{".", "stress"} {
		entries, err := files.ReadDir(dir)
		if err != nil {
			panic(err) // embedded directories always read
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			name := e.Name()
			if dir != "." {
				name = dir + "/" + name
			}
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Read returns one committed spec by filename.
func Read(name string) ([]byte, error) {
	return files.ReadFile(name)
}
