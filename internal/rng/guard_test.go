package rng

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNewSourceOnlyHere walks the module's non-test Go files and fails
// on any reference to math/rand's NewSource outside this package: every
// seeded stream is built here, so the stream-parity pins cover all of
// them, including call sites added later. benchmark/ is exempt: it is
// the instrument that compares commits, keeps its own inputs fixed
// across them and changes only on its own.
func TestNewSourceOnlyHere(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	scanned := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if rel == "benchmark" || rel == filepath.Join("internal", "rng") || name == "testdata" ||
				(rel != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		scanned++
		randName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
				randName = "rand"
				if imp.Name != nil {
					randName = imp.Name.Name
				}
			}
		}
		if randName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewSource" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == randName {
					t.Errorf("%s: rand.NewSource outside internal/rng; use rng.New or a Source", fset.Position(sel.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d files under %s: is the module root two levels up?", scanned, root)
	}
}
