package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A pkg is one directory of the module: its non-test files type-checked
// as a package, its _test.go files parsed and, when they hold a checked
// Example, type-checked too, so that an Example's calls resolve.
type pkg struct {
	path  string // import path
	files []*ast.File
	tests []*ast.File
	types *types.Package // nil for a directory with only _test.go files
	info  *types.Info
	tinfo *types.Info // the test files' uses; nil unless they hold a checked Example
}

// A module is every package of one Go module, type-checked from source.
type module struct {
	path string
	fset *token.FileSet
	pkgs []*pkg // sorted by import path
}

// A finding is one violation. key is what an allowlist entry names:
// the rule in parentheses, then a file or a qualified identifier.
type finding struct {
	key string
	pos token.Position
	msg string
}

// rules names the module's own types and packages that rules (c) and
// (d) start from; a zero field leaves its rule nothing to check.
type rules struct {
	wireRoots []string // rule (c): "importpath.Type" of each type that reaches a report or a wire frame
	noAssert  string   // rule (d): import path of the package that may not assert to a role interface
}

var std struct {
	once sync.Once
	fset *token.FileSet
	imp  types.ImporterFrom
}

// stdImporter returns the one source importer for the standard library,
// shared by every load so that each standard package is type-checked
// once per test binary. Its file set is the one every load uses.
func stdImporter() (*token.FileSet, types.ImporterFrom) {
	std.once.Do(func() {
		// The importer reads build.Default. Without cgo it checks the
		// pure-Go files of net and os/user, which needs no C toolchain.
		build.Default.CgoEnabled = false
		std.fset = token.NewFileSet()
		std.imp = importer.ForCompiler(std.fset, "source", nil).(types.ImporterFrom)
	})
	return std.fset, std.imp
}

// loadDir reads and type-checks the module rooted at root. Directories
// named testdata or starting with "." or "_" are skipped, as the go
// command skips them.
func loadDir(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	src := map[string][]byte{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		// Build constraints and _GOOS/_GOARCH suffixes leave out files
		// the go command would not build here.
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		src[filepath.ToSlash(rel)], err = os.ReadFile(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return load(modPath, src)
}

// load parses src (module-relative slash path → contents) and
// type-checks every package in it. Positions carry the relative paths.
func load(modPath string, src map[string][]byte) (*module, error) {
	fset, stdImp := stdImporter()
	l := &loader{m: &module{path: modPath, fset: fset}, std: stdImp, byPath: map[string]*pkg{}, busy: map[*pkg]bool{}}
	for _, name := range sortedKeys(src) {
		ip := modPath
		if dir := path.Dir(name); dir != "." {
			ip += "/" + dir
		}
		p := l.byPath[ip]
		if p == nil {
			p = &pkg{path: ip}
			l.byPath[ip] = p
			l.m.pkgs = append(l.m.pkgs, p)
		}
		f, err := parser.ParseFile(fset, name, src[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			p.tests = append(p.tests, f)
		} else {
			p.files = append(p.files, f)
		}
	}
	sort.Slice(l.m.pkgs, func(i, j int) bool { return l.m.pkgs[i].path < l.m.pkgs[j].path })
	for _, p := range l.m.pkgs {
		if len(p.files) > 0 {
			if err := l.check(p); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range l.m.pkgs {
		if err := l.checkTests(p); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

// loader type-checks the module's packages on demand, as their importers
// reach them, and hands every other import path to the standard library.
type loader struct {
	m      *module
	std    types.ImporterFrom
	byPath map[string]*pkg
	busy   map[*pkg]bool
}

func (l *loader) check(p *pkg) error {
	if p.types != nil {
		return nil
	}
	if l.busy[p] {
		return fmt.Errorf("import cycle through %s", p.path)
	}
	l.busy[p] = true
	var errs []error
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tp, _ := conf.Check(p.path, l.m.fset, p.files, info)
	if len(errs) > 0 {
		return fmt.Errorf("type-checking %s: %w", p.path, errors.Join(errs...))
	}
	p.types, p.info = tp, info
	return nil
}

// checkTests type-checks p's test files if any holds a checked Example,
// as go test builds them: the in-package ones together with p's own
// files, the external ones as a package that imports the module's. The
// external files see p without its in-package test files, so a helper
// an export_test.go file adds does not resolve there; such errors are
// ignored, as only the Examples' calls are read, but an error inside a
// checked Example fails the load.
func (l *loader) checkTests(p *pkg) error {
	var inner, outer []*ast.File
	var bodies []ast.Node
	for _, f := range p.tests {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && isExample(f, fd) {
				bodies = append(bodies, fd.Body)
			}
		}
		if len(p.files) > 0 && strings.HasSuffix(f.Name.Name, "_test") {
			outer = append(outer, f)
		} else {
			inner = append(inner, f)
		}
	}
	if len(bodies) == 0 {
		return nil
	}
	p.tinfo = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
		Error: func(err error) {
			if te, ok := err.(types.Error); ok && within(bodies, te.Pos) {
				errs = append(errs, err)
			}
		},
	}
	if len(inner) > 0 {
		conf.Check(p.path, l.m.fset, append(slices.Clip(p.files), inner...), p.tinfo) //nolint:errcheck // reported through conf.Error
	}
	if len(outer) > 0 {
		conf.Check(p.path+"_test", l.m.fset, outer, p.tinfo) //nolint:errcheck // reported through conf.Error
	}
	if len(errs) > 0 {
		return fmt.Errorf("type-checking the examples of %s: %w", p.path, errors.Join(errs...))
	}
	return nil
}

func (l *loader) Import(ip string) (*types.Package, error) { return l.ImportFrom(ip, "", 0) }

func (l *loader) ImportFrom(ip, dir string, mode types.ImportMode) (*types.Package, error) {
	if ip != l.m.path && !strings.HasPrefix(ip, l.m.path+"/") {
		return l.std.ImportFrom(ip, dir, mode)
	}
	p := l.byPath[ip]
	if p == nil || len(p.files) == 0 {
		return nil, fmt.Errorf("no package %s in module %s", ip, l.m.path)
	}
	if err := l.check(p); err != nil {
		return nil, err
	}
	return p.types, nil
}

// run applies all five rules and returns the findings in position order.
func run(m *module, r rules) ([]finding, error) {
	out := unused(m)
	out = append(out, deadMethods(m)...)
	out = append(out, clockReads(m)...)
	words, err := wordFields(m, r.wireRoots)
	if err != nil {
		return nil, err
	}
	out = append(out, words...)
	if r.noAssert != "" {
		asserts, err := roleAsserts(m, r.noAssert)
		if err != nil {
			return nil, err
		}
		out = append(out, asserts...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out, nil
}

// resolve splits findings against an allowlist (key → one-line reason):
// the findings no entry names, and the entries that name no finding or
// give no reason.
func resolve(fs []finding, allow map[string]string) (open []finding, bad []string) {
	hit := map[string]bool{}
	for _, f := range fs {
		if _, ok := allow[f.key]; ok {
			hit[f.key] = true
		} else {
			open = append(open, f)
		}
	}
	for _, key := range sortedKeys(allow) {
		switch {
		case strings.TrimSpace(allow[key]) == "":
			bad = append(bad, key+": allowlisted without a reason")
		case !hit[key]:
			bad = append(bad, key+": allowlisted but not found; delete the entry")
		}
	}
	return open, bad
}

// qualifier writes types from other packages with their package name.
func qualifier(own *types.Package) types.Qualifier {
	return func(p *types.Package) string {
		if p == own {
			return ""
		}
		return p.Name()
	}
}

// unused is rule (a): an exported package-level identifier outside
// package main needs a use in non-test code, outside its own
// declaration (for a type, its methods too), or a reference from a
// checked Example (one with an output comment).
func unused(m *module) []finding {
	own := map[types.Object][]ast.Node{} // each candidate → its own declaration
	var order []types.Object
	for _, p := range m.pkgs {
		if p.types == nil || p.types.Name() == "main" {
			continue
		}
		add := func(id *ast.Ident, n ast.Node) {
			if obj := p.info.Defs[id]; id.IsExported() && obj != nil {
				own[obj] = append(own[obj], n)
				order = append(order, obj)
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s)
							}
						}
					}
				}
			}
		}
		// A type's methods are part of its own declaration.
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					if obj := recvType(p.info, fd.Recv.List[0].Type); own[obj] != nil {
						own[obj] = append(own[obj], fd)
					}
				}
			}
		}
	}
	used := exampled(m)
	for _, p := range m.pkgs {
		if p.info == nil {
			continue
		}
		for id, obj := range p.info.Uses {
			if decls, ok := own[obj]; ok && !used[obj] && !within(decls, id.Pos()) {
				used[obj] = true
			}
		}
	}
	var out []finding
	for _, obj := range order {
		if used[obj] {
			continue
		}
		out = append(out, finding{
			key: "(a) " + obj.Pkg().Name() + "." + obj.Name(),
			pos: m.fset.Position(obj.Pos()),
			msg: "exported, but no non-test code uses it and no checked Example shows it: delete it, move it into a _test.go file, or give it an Example",
		})
	}
	return out
}

// recvType returns the named type a receiver expression (T, *T, T[P])
// declares a method on.
func recvType(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

// within reports whether pos lies inside one of nodes.
func within(nodes []ast.Node, pos token.Pos) bool {
	for _, n := range nodes {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// exampled returns the package-level objects that a checked Example in
// any test file of the module names: pkg.Name through an import of a
// module package, or a bare Name inside the package's own tests.
func exampled(m *module) map[types.Object]bool {
	byPath := map[string]*types.Package{}
	for _, p := range m.pkgs {
		if p.types != nil {
			byPath[p.path] = p.types
		}
	}
	out := map[types.Object]bool{}
	mark := func(tp *types.Package, name string) {
		if obj := tp.Scope().Lookup(name); obj != nil {
			out[obj] = true
		}
	}
	for _, p := range m.pkgs {
		for _, f := range p.tests {
			imports := map[string]*types.Package{}
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				if tp := byPath[ip]; tp != nil {
					name := tp.Name()
					if imp.Name != nil {
						name = imp.Name.Name
					}
					imports[name] = tp
				}
			}
			inPkg := p.types != nil && f.Name.Name == p.types.Name()
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != nil {
						mark(imports[x.Name], n.Sel.Name)
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if inPkg {
						mark(p.types, n.Name)
					}
				}
				return true
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && isExample(f, fd) {
					ast.Inspect(fd.Body, visit)
				}
			}
		}
	}
	return out
}

// isExample reports whether fd is a checked Example function.
func isExample(f *ast.File, fd *ast.FuncDecl) bool {
	return fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") && checked(f, fd)
}

// checked reports whether an example function carries an output comment,
// so that go test runs it and compares what it prints.
func checked(f *ast.File, fd *ast.FuncDecl) bool {
	for _, c := range f.Comments {
		if c.Pos() < fd.Body.Pos() || c.End() > fd.Body.End() {
			continue
		}
		text := strings.ToLower(c.Text())
		if strings.HasPrefix(text, "output:") || strings.HasPrefix(text, "unordered output:") {
			return true
		}
	}
	return false
}

// deadMethods is rule (e): an exported method of a type outside package
// main needs a use in non-test code, outside its own declaration; or a
// place in the method set of an interface its type satisfies, where the
// interface is declared or written in the module's non-test code, or
// declared in a standard package the module imports; or a call from a
// checked Example that resolves to it.
func deadMethods(m *module) []finding {
	decls := map[*types.Func]*ast.FuncDecl{}
	var order []*types.Func
	var named []*types.Named
	for _, p := range m.pkgs {
		if p.types == nil || p.types.Name() == "main" {
			continue
		}
		// types.Implements is unspecified for an uninstantiated generic
		// type, so a generic type's methods need a use or an Example.
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if t, ok := tn.Type().(*types.Named); ok && t.TypeParams().Len() == 0 {
					named = append(named, t)
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.IsExported() {
					if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
						decls[fn] = fd
						order = append(order, fn)
					}
				}
			}
		}
	}
	used := map[*types.Func]bool{}
	for _, p := range m.pkgs {
		if p.info == nil {
			continue
		}
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if d := decls[fn]; d != nil && !within([]ast.Node{d}, id.Pos()) {
					used[fn] = true
				}
			}
		}
	}
	ifaces := interfaces(m)
	for _, t := range named {
		ptr := types.NewPointer(t)
		ms := types.NewMethodSet(ptr)
		for _, iface := range ifaces {
			if !hasNames(ms, iface) || !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				if sel := ms.Lookup(im.Pkg(), im.Name()); sel != nil {
					used[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	called := exampleCalls(m)
	var out []finding
	for _, fn := range order {
		if used[fn] || called[fn.Pos()] {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		out = append(out, finding{
			key: "(e) " + fn.Pkg().Name() + "." + recv.(*types.Named).Obj().Name() + "." + fn.Name(),
			pos: m.fset.Position(fn.Pos()),
			msg: "exported method with no non-test caller, no interface it satisfies and no checked Example: delete it, move it into a _test.go file, or allowlist it for the tests that need it",
		})
	}
	return out
}

// interfaces returns every interface with methods that rule (e) lets a
// method satisfy: each interface type written in the module's non-test
// code, named or literal, and each one declared at package level in a
// standard package the module imports, directly or not, or in the
// universe (error).
func interfaces(m *module) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		if !m.contains(tp.Path()) {
			for _, name := range tp.Scope().Names() {
				if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type().Underlying())
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying())
	for _, p := range m.pkgs {
		if p.info == nil {
			continue
		}
		walk(p.types)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					add(p.info.Types[it].Type)
				}
				return true
			})
		}
	}
	return out
}

// hasNames reports whether ms has a method of every name iface needs, a
// cheap filter ahead of types.Implements.
func hasNames(ms *types.MethodSet, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		im := iface.Method(i)
		if ms.Lookup(im.Pkg(), im.Name()) == nil {
			return false
		}
	}
	return true
}

// exampleCalls returns the declaration positions of the methods called
// as x.Name(…) in the body of any checked Example in the module's test
// files, as the type-checked tests resolve each call. A test package
// checked with its own package's files makes new objects for them, so a
// method is matched by where it is declared, not by object.
func exampleCalls(m *module) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	for _, p := range m.pkgs {
		if p.tinfo == nil {
			continue
		}
		for _, f := range p.tests {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && isExample(f, fd) {
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
								if fn, ok := p.tinfo.Uses[sel.Sel].(*types.Func); ok {
									out[fn.Origin().Pos()] = true
								}
							}
						}
						return true
					})
				}
			}
		}
	}
	return out
}

// clockReads is rule (b): every call or reference to time.Now or
// time.Since in non-test code, keyed by file.
func clockReads(m *module) []finding {
	var out []finding
	for _, p := range m.pkgs {
		if p.info == nil {
			continue
		}
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
				(fn.Name() == "Now" || fn.Name() == "Since") {
				pos := m.fset.Position(id.Pos())
				out = append(out, finding{
					key: "(b) " + pos.Filename,
					pos: pos,
					msg: "reads the wall clock in a file that is not allowlisted: results must not depend on real time",
				})
			}
		}
	}
	return out
}

// wordFields is rule (c): every exported field, in a module type
// reachable from the roots through fields, pointers, slices, arrays and
// maps, whose type holds a word-sized integer (int, uint, uintptr, or a
// named type over one), whose range differs between 32- and 64-bit hosts.
func wordFields(m *module, roots []string) ([]finding, error) {
	var out []finding
	seen := map[*types.Named]bool{}
	var visit func(types.Type)
	visit = func(t types.Type) {
		switch t := t.(type) {
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Named:
			if seen[t] || t.Obj().Pkg() == nil || !m.contains(t.Obj().Pkg().Path()) {
				return
			}
			seen[t] = true
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				visit(t.Underlying())
				return
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				if holdsWord(f.Type()) {
					out = append(out, finding{
						key: "(c) " + t.Obj().Pkg().Name() + "." + t.Obj().Name() + "." + f.Name(),
						pos: m.fset.Position(f.Pos()),
						msg: fmt.Sprintf("%s reaches a report or a wire frame and its range depends on the word size", types.TypeString(f.Type(), qualifier(t.Obj().Pkg()))),
					})
				}
				visit(f.Type())
			}
		}
	}
	for _, root := range roots {
		i := strings.LastIndex(root, ".")
		p := m.pkg(root[:max(i, 0)])
		if i < 0 || p == nil {
			return nil, fmt.Errorf("rule (c) root %q: no such package", root)
		}
		obj, ok := p.types.Scope().Lookup(root[i+1:]).(*types.TypeName)
		if !ok {
			return nil, fmt.Errorf("rule (c) root %q: no such type", root)
		}
		visit(obj.Type())
	}
	return out, nil
}

func holdsWord(t types.Type) bool { return holds(t, map[*types.Named]bool{}) }

// holds reports whether t holds a word-sized integer; seen guards the
// named types on the way, which a type such as `type T []T` revisits.
func holds(t types.Type, seen map[*types.Named]bool) bool {
	switch t := types.Unalias(t).(type) {
	case *types.Pointer:
		return holds(t.Elem(), seen)
	case *types.Slice:
		return holds(t.Elem(), seen)
	case *types.Array:
		return holds(t.Elem(), seen)
	case *types.Map:
		return holds(t.Key(), seen) || holds(t.Elem(), seen)
	case *types.Named:
		if seen[t] {
			return false
		}
		seen[t] = true
		return holds(t.Underlying(), seen)
	case *types.Basic:
		return t.Kind() == types.Int || t.Kind() == types.Uint || t.Kind() == types.Uintptr
	}
	return false
}

// roleAsserts is rule (d): every type assertion and type-switch case in
// package ip whose type is an interface the module declares (a role),
// keyed by file and asserted type.
func roleAsserts(m *module, ip string) ([]finding, error) {
	p := m.pkg(ip)
	if p == nil {
		return nil, fmt.Errorf("rule (d): no package %s", ip)
	}
	var out []finding
	report := func(e ast.Expr) {
		t := p.info.Types[e].Type
		named, ok := t.(*types.Named)
		if !ok || !types.IsInterface(t) || named.Obj().Pkg() == nil || !m.contains(named.Obj().Pkg().Path()) {
			return
		}
		pos := m.fset.Position(e.Pos())
		out = append(out, finding{
			key: fmt.Sprintf("(d) %s .(%s)", pos.Filename, types.TypeString(t, qualifier(p.types))),
			pos: pos,
			msg: "type assertion to a role interface: widen the role's contract instead of probing for an optional one",
		})
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					report(n.Type)
				}
			case *ast.TypeSwitchStmt:
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						report(e)
					}
				}
			}
			return true
		})
	}
	return out, nil
}

func (m *module) contains(ip string) bool { return ip == m.path || strings.HasPrefix(ip, m.path+"/") }

// pkg returns the type-checked package at import path ip, or nil.
func (m *module) pkg(ip string) *pkg {
	for _, p := range m.pkgs {
		if p.path == ip && p.types != nil {
			return p
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
