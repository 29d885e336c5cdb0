package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// One loader for the whole test binary: stdlib type-checking from
// source is the expensive part and the loader memoizes it.
var (
	loaderOnce sync.Once
	testLdr    *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { testLdr, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return testLdr
}

// runOnTestdata loads one golden package and runs a single analyzer on
// it, bypassing AppliesTo (scoping is tested separately).
func runOnTestdata(t *testing.T, a *Analyzer, name string) (kept, suppressed []Diagnostic, pkg *Package) {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.Load("internal/lint/testdata/src/" + name)
	if err != nil {
		t.Fatalf("loading testdata %s: %v", name, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("testdata %s: type error: %v", name, terr)
	}
	var diags []Diagnostic
	a.Run(&Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		diags:     &diags,
	})
	kept, suppressed = Filter(diags, pkg.Suppressions)
	return kept, suppressed, pkg
}

var wantRe = regexp.MustCompile("`([^`]+)`")

// checkWants compares kept diagnostics against the package's `// want`
// comments, analysistest-style: every diagnostic needs a matching want
// on its line, every want needs a diagnostic.
func checkWants(t *testing.T, pkg *Package, kept []Diagnostic) {
	t.Helper()
	type want struct {
		re      *regexp.Regexp
		matched bool
		pos     token.Position
	}
	wants := make(map[string]map[int][]*want) // file -> line -> wants
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					if wants[pos.Filename] == nil {
						wants[pos.Filename] = make(map[int][]*want)
					}
					wants[pos.Filename][pos.Line] = append(wants[pos.Filename][pos.Line], &want{re: re, pos: pos})
				}
			}
		}
	}
	for _, d := range kept {
		matched := false
		for _, w := range wants[d.Pos.Filename][d.Pos.Line] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for _, lines := range wants {
		for _, ws := range lines {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: no diagnostic matched want %q", w.pos.Filename, w.pos.Line, w.re)
				}
			}
		}
	}
}

func TestDeterminismAnalyzer(t *testing.T) {
	kept, _, pkg := runOnTestdata(t, Determinism, "determinism")
	checkWants(t, pkg, kept)
}

func TestVClockAnalyzer(t *testing.T) {
	kept, suppressed, pkg := runOnTestdata(t, VClock, "vclock")
	checkWants(t, pkg, kept)
	if len(suppressed) != 1 {
		t.Errorf("suppressed = %v, want exactly the justified time.Sleep", suppressed)
	}
}

func TestETLDAnalyzer(t *testing.T) {
	kept, _, pkg := runOnTestdata(t, ETLD, "etld")
	checkWants(t, pkg, kept)
}

func TestErrWrapAnalyzer(t *testing.T) {
	kept, _, pkg := runOnTestdata(t, ErrWrap, "errwrap")
	checkWants(t, pkg, kept)
}

func TestAtomicwriteAnalyzer(t *testing.T) {
	kept, suppressed, pkg := runOnTestdata(t, Atomicwrite, "atomicwrite")
	checkWants(t, pkg, kept)
	if len(suppressed) != 1 {
		t.Errorf("suppressed = %v, want exactly the justified streaming sink", suppressed)
	}
}

func TestSuppressionParsing(t *testing.T) {
	diags := []Diagnostic{
		{Pos: token.Position{Filename: "f.go", Line: 10}, Analyzer: "vclock", Message: "m"},
		{Pos: token.Position{Filename: "f.go", Line: 20}, Analyzer: "vclock", Message: "m"},
		{Pos: token.Position{Filename: "f.go", Line: 30}, Analyzer: "etld", Message: "m"},
	}
	sups := []Suppression{
		{File: "f.go", Line: 10, Analyzer: "vclock", Reason: "same-line"},
		{File: "f.go", Line: 19, Analyzer: "vclock", Reason: "line-above"},
		{File: "f.go", Line: 30, Analyzer: "vclock", Reason: "wrong analyzer"},
		{File: "f.go", Line: 40, Malformed: true},
	}
	kept, suppressed := Filter(diags, sups)
	if len(suppressed) != 2 {
		t.Errorf("suppressed %d findings, want 2: %v", len(suppressed), suppressed)
	}
	// The etld diagnostic survives (its suppression names the wrong
	// analyzer) and the malformed comment reports itself.
	if len(kept) != 2 {
		t.Fatalf("kept %d findings, want 2: %v", len(kept), kept)
	}
	if kept[0].Analyzer != "etld" || kept[1].Analyzer != "topicslint" {
		t.Errorf("kept = %v", kept)
	}
	if !strings.Contains(kept[1].Message, "malformed suppression") {
		t.Errorf("malformed message = %q", kept[1].Message)
	}
}

func TestAnalyzerScopes(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		rel  string
		want bool
	}{
		{Determinism, "internal/analysis", true},
		{Determinism, "internal/crawler", true},
		{Determinism, "internal/webserver", false},
		{Determinism, "cmd/benchjson", false},
		{VClock, "internal/vclock", false},
		{VClock, "internal/webserver", true},
		{VClock, "", true},
		{ETLD, "internal/etld", false},
		{ETLD, "internal/tranco", true},
		{ErrWrap, "internal/crawler", true},
		{ErrWrap, "internal/chaos", true},
		{ErrWrap, "internal/analysis", false},
		{Atomicwrite, "internal/durable", false},
		{Atomicwrite, "internal/dataset", true},
		{Atomicwrite, "cmd/topics-report", true},
	}
	for _, c := range cases {
		if got := c.a.AppliesTo(c.rel); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.a.Name, c.rel, got, c.want)
		}
	}
}

// TestScopesNameExistingPackages guards the inPackages scope lists: a
// scope naming a deleted or renamed package silently checks nothing, so
// every string literal passed to inPackages in this package's sources
// must name a module directory that holds a non-test Go package.
func TestScopesNameExistingPackages(t *testing.T) {
	root := testLoader(t).ModuleDir
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	scopes := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "inPackages" {
					return true
				}
				for _, arg := range call.Args {
					lit, ok := arg.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Errorf("%s: inPackages argument is not a string literal", fset.Position(arg.Pos()))
						continue
					}
					rel, _ := strconv.Unquote(lit.Value)
					scopes++
					if !hasGoFiles(filepath.Join(root, filepath.FromSlash(rel))) {
						t.Errorf("%s: scope %q names no package in the module", fset.Position(lit.Pos()), rel)
					}
				}
				return true
			})
		}
	}
	if scopes == 0 {
		t.Fatal("found no inPackages scopes to check")
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		verbs  string
		ok     bool
	}{
		{"plain", "", true},
		{"%s: %w", "sw", true},
		{"%d%%done %v", "dv", true},
		{"%*d and %.2f %q", "*dfq", true},
		{"%+v %-10s %#x", "vsx", true},
		{"%[1]s", "", false},
	}
	for _, c := range cases {
		verbs, ok := formatVerbs(c.format)
		if ok != c.ok || string(verbs) != c.verbs {
			t.Errorf("formatVerbs(%q) = %q, %v; want %q, %v", c.format, string(verbs), ok, c.verbs, c.ok)
		}
	}
}

// TestRepoIsClean is the suite enforcing itself as part of tier-1: the
// whole module must type-check through the lint loader and produce
// zero unsuppressed findings. Introducing a time.Now() into
// internal/analysis (or an unsorted map-range into a report path)
// fails this test, not just `make lint`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping module-wide lint pass")
	}
	l := testLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadAll found only %d packages — discovery is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error under the lint loader: %v", pkg.ImportPath, terr)
		}
		kept, _ := RunAnalyzers(pkg, All())
		for _, d := range kept {
			t.Errorf("unsuppressed finding: %s", d)
		}
	}
}
