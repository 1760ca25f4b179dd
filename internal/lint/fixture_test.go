package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestFixtures gives every rule a small module that breaks it, so that
// no rule passes because it checks nothing: each case must leave
// exactly the findings it names open, and the allowlist entries it
// names bad.
func TestFixtures(t *testing.T) {
	cases := []struct {
		rule  string
		src   map[string]string
		rules rules
		allow map[string]string
		open  []string
		bad   []string
	}{{
		rule: "(a)",
		src: map[string]string{
			"lib/lib.go": `package lib

// Used is called from package main.
func Used() T { return T{} }

// T is used through Used's result.
type T struct{}

// Dead is called only by itself and by its test.
func Dead(n int) int {
	if n == 0 {
		return 0
	}
	return Dead(n - 1)
}

// Shown appears only in a checked example.
func Shown() int { return 1 }

// Unchecked appears only in an example without an output comment.
func Unchecked() int { return 2 }

// Orphan is named only by its own method.
type Orphan struct{}

func (o Orphan) Self() Orphan { return o }

// Limit is read by no code.
const Limit = 3

// Kept is allowlisted.
const Kept = 4
`,
			"lib/lib_test.go": `package lib_test

import (
	"fmt"
	"testing"

	"fix/lib"
)

func ExampleShown() {
	fmt.Println(lib.Shown())
	// Output: 1
}

func ExampleUnchecked() {
	fmt.Println(lib.Unchecked())
}

func TestDead(t *testing.T) { lib.Dead(1) }
`,
			"cmd/main.go": `package main

import "fix/lib"

// Exported is exempt: package main has no importers.
func Exported() {}

func main() { lib.Used() }
`,
		},
		allow: map[string]string{"(a) lib.Kept": "a test elsewhere needs it"},
		open:  []string{"(a) lib.Dead", "(a) lib.Unchecked", "(a) lib.Orphan", "(a) lib.Limit"},
	}, {
		rule: "(b)",
		src: map[string]string{
			"sim/clock.go": `package sim

import "time"

// Elapsed reads the wall clock outside the allowlist.
func Elapsed() time.Duration { return time.Since(time.Now()) }
`,
			"sim/tick.go": `package sim

import "time"

// Tick reads the wall clock in a file allowlisted without a reason.
func Tick() time.Time { return time.Now() }
`,
			"metrics/clock.go": `package metrics

import "time"

// Epoch reads the wall clock in an allowlisted file.
var Epoch = time.Now()
`,
		},
		allow: map[string]string{
			"(b) metrics/clock.go": "the collector's epoch",
			"(b) gone.go":          "a file that no longer reads the clock",
			"(b) sim/tick.go":      " ",
		},
		open: []string{"(b) sim/clock.go", "(b) sim/clock.go"},
		bad: []string{
			"(b) gone.go: allowlisted but not found; delete the entry",
			"(b) sim/tick.go: allowlisted without a reason",
		},
	}, {
		rule: "(c)",
		src: map[string]string{
			"wire/wire.go": `package wire

// Phase is a named word-sized integer.
type Phase int

// IDs and Schedule are named containers of one.
type IDs []int
type Schedule map[int]bool

// Tree holds itself and no integer.
type Tree []Tree

// Record is the root that reaches a wire frame.
type Record struct {
	Run    int
	Bytes  int64
	Phase  Phase
	Tags   []uint
	Nodes  IDs
	Crash  Schedule
	Kids   Tree
	Inner  Inner
	Next   *Record
	hidden int
}

// Inner is reached through Record.
type Inner struct {
	Count map[int32]uintptr
	OK    bool
}

// Frame does not reach Record.
type Frame struct{ Size int }
`,
		},
		rules: rules{wireRoots: []string{"fix/wire.Record"}},
		open:  []string{"(c) wire.Record.Run", "(c) wire.Record.Phase", "(c) wire.Record.Tags", "(c) wire.Record.Nodes", "(c) wire.Record.Crash", "(c) wire.Inner.Count"},
	}, {
		rule: "(d)",
		src: map[string]string{
			"sim/engine.go": `package sim

// Observer and Stepper are roles.
type Observer interface{ Observe() }
type Stepper interface{ Step() }

// Attach probes x for optional roles.
func Attach(x any) int {
	if o, ok := x.(Observer); ok {
		o.Observe()
	}
	switch x.(type) {
	case Stepper:
		return 1
	case nil, int:
		return 2
	}
	_ = x.(error)
	return 0
}
`,
		},
		rules: rules{noAssert: "fix/sim"},
		open:  []string{"(d) sim/engine.go .(Observer)", "(d) sim/engine.go .(Stepper)"},
	}, {
		rule: "(e)",
		src: map[string]string{
			"lib/lib.go": `package lib

import "fmt"

// T carries one method of each kind.
type T struct{ n int }

// Runner is a role the module declares.
type Runner interface{ Run() }

// Outer promotes T's methods.
type Outer struct{ T }

func (t T) Used()              {}
func (t T) Promoted()          {}
func (t T) Dead() int          { return t.n }
func (t T) String() string     { return fmt.Sprint(t.n) }
func (t *T) Run()              { t.n++ }
func (t T) Grow(int)           {}
func (t T) Shown() int         { return 1 }
func (t T) Unchecked() int     { return 2 }
func (t T) Kept()              {}
func (t T) Self(k int) int {
	if k == 0 {
		return 0
	}
	return t.Self(k - 1)
}

// Other has a method named like one an Example calls on T, and one
// only an in-package Example calls.
type Other struct{}

func (Other) Shown() int { return 3 }
func (Other) Inner() int { return 4 }

// hidden is unexported, but its exported method is still checked.
type hidden struct{}

func (hidden) Exported() {}

// Probe asserts to an interface literal.
func Probe(x any) {
	if g, ok := x.(interface{ Grow(int) }); ok {
		g.Grow(1)
	}
}
`,
			"lib/lib_test.go": `package lib_test

import (
	"fmt"
	"testing"

	"fix/lib"
)

func ExampleT_Shown() {
	fmt.Println(lib.T{}.Shown())
	// Output: 1
}

func ExampleT_Unchecked() {
	fmt.Println(lib.T{}.Unchecked())
}

func TestDead(t *testing.T) { lib.T{}.Dead() }
`,
			"lib/inner_test.go": `package lib

import "fmt"

func ExampleOther_Inner() {
	fmt.Println(Other{}.Inner())
	// Output: 4
}
`,
			"cmd/main.go": `package main

import "fix/lib"

// Cmd's method is exempt: package main has no importers.
type Cmd struct{}

func (Cmd) Exported() {}

func main() {
	lib.T{}.Used()
	lib.Outer{}.Promoted()
	lib.Probe(lib.T{})
}
`,
		},
		allow: map[string]string{"(e) lib.T.Kept": "a test elsewhere needs it"},
		open:  []string{"(e) lib.T.Dead", "(e) lib.T.Unchecked", "(e) lib.T.Self", "(e) lib.Other.Shown", "(e) lib.hidden.Exported"},
	}}
	for _, tc := range cases {
		src := map[string][]byte{}
		for name, text := range tc.src {
			src[name] = []byte(text)
		}
		m, err := load("fix", src)
		if err != nil {
			t.Fatalf("%s: %v", tc.rule, err)
		}
		fs, err := run(m, tc.rules)
		if err != nil {
			t.Fatalf("%s: %v", tc.rule, err)
		}
		var mine []finding
		for _, f := range fs {
			if strings.HasPrefix(f.key, tc.rule) {
				mine = append(mine, f)
			}
		}
		open, bad := resolve(mine, tc.allow)
		var keys []string
		for _, f := range open {
			keys = append(keys, f.key)
		}
		if !reflect.DeepEqual(keys, tc.open) {
			t.Errorf("%s: open findings %q, want %q", tc.rule, keys, tc.open)
		}
		if !reflect.DeepEqual(bad, tc.bad) {
			t.Errorf("%s: bad allowlist entries %q, want %q", tc.rule, bad, tc.bad)
		}
	}
}

// TestLoadDirBuildConstraints loads a module whose files the go command
// would not all build together: a file for another system and one
// behind a build tag redeclare what the plain file declares.
func TestLoadDirBuildConstraints(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":           "module fix\n",
		"lib/lib.go":       "package lib\n\nconst Size = 1\n",
		"lib/lib_plan9.go": "package lib\n\nconst Size = 2\n",
		"lib/lib_tag.go":   "//go:build never\n\npackage lib\n\nconst Size = 3\n",
	}
	for name, text := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := loadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if p := m.pkg("fix/lib"); p == nil || len(p.files) != 1 {
		t.Fatalf("package fix/lib: want one file to build")
	}
}
