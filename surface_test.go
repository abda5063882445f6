package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestInternalExportsAreUsed enforces the rule that an exported name in a
// library package of the module (internal/, recon, recon/wire: every
// package that is not a command) is there because a program uses it.
//
// Every exported function, method, type, variable and constant declared in
// a non-test file of a library package other than a reference.go must be
// used by a program: a non-test file anywhere in the module that is not a
// reference.go. A package's reference.go holds its test oracles (the
// simplest implementations that tests compare the fast paths against):
// each of its exported names must be used by a test or by another
// reference.go, and never by a program. A finding is fixed in one of three
// ways: delete the name; move it into its package's _test.go files, when
// only that package's tests need it; or move it into the package's
// reference.go, when another package's tests need it as an oracle.
//
// Uses are resolved by go/types over every package of the module with its
// tests, for the build constraints of the host, and keyed by package,
// receiver base type and name, so a method named like a used method of
// another type is not kept alive by it. A method also counts as used when
// its type implements an interface that has that method and is declared in
// the module, in a package a program imports, or is error; a generic type
// is checked as its instance over its own type parameters. Unwrap counts
// on an error type, since errors.Is and errors.As call it. There is no
// allow-list.
func TestInternalExportsAreUsed(t *testing.T) {
	t.Parallel()
	findings, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestExportGuardFixture runs the guard over a small module built to hold
// one case of each finding, in internal/ and in a public package, next to
// methods that an interface keeps: on a plain type, on a generic type, and
// an error's Unwrap.
func TestExportGuardFixture(t *testing.T) {
	t.Parallel()
	got, err := unusedExports(filepath.Join("testdata", "exportguard"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/shapes/reference.go:4:6: shapes.RefArea is used by a program",
		"internal/shapes/reference.go:7:6: shapes.RefPerimeter is in reference.go but nothing uses it",
		"internal/shapes/shapes.go:18:17: shapes.Square.Area is exported but no program uses it",
		"report/report.go:11:6: report.Lines is exported but no program uses it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// Where a use is made.
const (
	byProgram = 1 << iota
	byTest
	byReference
)

type exportGuard struct {
	root, module string
	fset         *token.FileSet
	std          types.ImporterFrom
	pkgs         map[string]*guardPkg // import path -> package
	checked      map[string]*types.Package
	uses         map[string]int // declaration key -> byProgram | byTest | byReference
	decls        []guardDecl
}

type guardPkg struct {
	path               string
	src, inTest, xTest []*ast.File
}

type guardDecl struct {
	key, pkg, recv, name string
	pos                  token.Pos
	reference            bool
}

// unusedExports applies the rule of TestInternalExportsAreUsed to the module
// rooted at root and returns its findings, sorted.
func unusedExports(root string) ([]string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	g := &exportGuard{
		root:    root,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*guardPkg{},
		checked: map[string]*types.Package{},
		uses:    map[string]int{},
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			g.module = strings.TrimSpace(m)
			break
		}
	}
	g.std = importer.ForCompiler(g.fset, "source", nil).(types.ImporterFrom)
	if err := g.parse(); err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(g.pkgs))
	for p := range g.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	programImports := map[string]bool{}
	for _, p := range paths {
		if err := g.checkWithTests(g.pkgs[p], programImports); err != nil {
			return nil, err
		}
	}
	ifaces, err := g.interfaces(programImports)
	if err != nil {
		return nil, err
	}

	var findings []string
	for _, d := range g.decls {
		use := g.uses[d.key]
		var msg string
		switch {
		case d.reference && use&byProgram != 0:
			msg = "is used by a program"
		case d.reference && use == 0:
			msg = "is in reference.go but nothing uses it"
		case !d.reference && use&byProgram == 0 && !g.satisfies(d, ifaces):
			msg = "is exported but no program uses it"
		default:
			continue
		}
		pos := g.fset.Position(d.pos)
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			return nil, err
		}
		name := d.key[strings.LastIndex(d.key, "/")+1:]
		findings = append(findings, fmt.Sprintf("%s:%d:%d: %s %s", filepath.ToSlash(rel), pos.Line, pos.Column, name, msg))
	}
	sort.Strings(findings)
	return findings, nil
}

// parse reads every Go file of the module that the host's build
// constraints select, skipping testdata and hidden directories.
func (g *exportGuard) parse() error {
	return filepath.WalkDir(g.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != g.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(g.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(g.root, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := g.module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg := g.pkgs[path]
		if pkg == nil {
			pkg = &guardPkg{path: path}
			g.pkgs[path] = pkg
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			pkg.src = append(pkg.src, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			pkg.xTest = append(pkg.xTest, f)
		default:
			pkg.inTest = append(pkg.inTest, f)
		}
		return nil
	})
}

// Import type-checks the module's packages without their tests, once each,
// and leaves every other path to the source importer.
func (g *exportGuard) Import(path string) (*types.Package, error) {
	return g.ImportFrom(path, g.root, 0)
}

func (g *exportGuard) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	pkg := g.pkgs[path]
	if pkg == nil {
		return g.std.ImportFrom(path, dir, mode)
	}
	if tp := g.checked[path]; tp != nil {
		return tp, nil
	}
	tp, _, err := g.check(path, pkg.src, g)
	g.checked[path] = tp
	return tp, err
}

func (g *exportGuard) check(path string, files []*ast.File, imp types.ImporterFrom) (*types.Package, *types.Info, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: imp}
	tp, err := conf.Check(path, g.fset, files, info)
	if err != nil {
		err = fmt.Errorf("type-checking %s: %w", path, err)
	}
	return tp, info, err
}

// testImporter is the importer of an external test package: like the go
// tool, it resolves the package under test to its variant that includes the
// in-package test files, and type-checks again against that variant every
// module package that imports it.
type testImporter struct {
	*exportGuard
	path    string
	checked map[string]*types.Package
}

func (ti *testImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if tp := ti.checked[path]; tp != nil {
		return tp, nil
	}
	if !ti.imports(path, ti.path, map[string]bool{}) {
		return ti.exportGuard.ImportFrom(path, dir, mode)
	}
	tp, _, err := ti.check(path, ti.pkgs[path].src, ti)
	ti.checked[path] = tp
	return tp, err
}

// imports reports whether the module package from imports to, directly or
// through other module packages.
func (g *exportGuard) imports(from, to string, seen map[string]bool) bool {
	pkg := g.pkgs[from]
	if pkg == nil || seen[from] {
		return false
	}
	seen[from] = true
	for _, f := range pkg.src {
		for _, is := range f.Imports {
			if p := strings.Trim(is.Path.Value, `"`); p == to || g.imports(p, to, seen) {
				return true
			}
		}
	}
	return false
}

// checkWithTests type-checks pkg with its in-package tests, and then its
// external test package, recording the uses in each file and, for
// a library package, the exported declarations of its non-test files.
func (g *exportGuard) checkWithTests(pkg *guardPkg, programImports map[string]bool) error {
	files := append(append([]*ast.File(nil), pkg.src...), pkg.inTest...)
	tp, info, err := g.check(pkg.path, files, g)
	if err != nil {
		return err
	}
	library := tp.Name() != "main"
	for _, f := range files {
		kind := g.fileKind(f)
		if kind == byProgram {
			for _, is := range f.Imports {
				programImports[strings.Trim(is.Path.Value, `"`)] = true
			}
		}
		g.recordUses(f, info, kind, library && kind != byTest)
	}
	if len(pkg.xTest) == 0 {
		return nil
	}
	_, xinfo, err := g.check(pkg.path+"_test", pkg.xTest, &testImporter{g, pkg.path, map[string]*types.Package{pkg.path: tp}})
	if err != nil {
		return err
	}
	for _, f := range pkg.xTest {
		g.recordUses(f, xinfo, byTest, false)
	}
	return nil
}

func (g *exportGuard) fileKind(f *ast.File) int {
	switch name := filepath.Base(g.fset.File(f.Pos()).Name()); {
	case strings.HasSuffix(name, "_test.go"):
		return byTest
	case name == "reference.go":
		return byReference
	}
	return byProgram
}

// recordUses records every use that f makes of a package-level name or a
// method, except a declaration's uses of itself and the receivers of
// methods, and, when declares is set, f's exported declarations.
func (g *exportGuard) recordUses(f *ast.File, info *types.Info, kind int, declares bool) {
	for _, d := range f.Decls {
		self := map[string]bool{}
		var idents []*ast.Ident
		var nodes []ast.Node
		switch d := d.(type) {
		case *ast.FuncDecl:
			idents = append(idents, d.Name)
			nodes = append(nodes, d.Type)
			if d.Body != nil {
				nodes = append(nodes, d.Body)
			}
		case *ast.GenDecl:
			nodes = append(nodes, d)
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					idents = append(idents, s.Name)
				case *ast.ValueSpec:
					idents = append(idents, s.Names...)
				}
			}
		}
		for _, id := range idents {
			obj := info.Defs[id]
			key, recv := objKey(obj)
			if key == "" {
				continue
			}
			self[key] = true
			if declares && id.IsExported() {
				g.decls = append(g.decls, guardDecl{key: key, pkg: obj.Pkg().Path(), recv: recv, name: id.Name, pos: id.Pos(), reference: kind == byReference})
			}
		}
		for _, n := range nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if key, _ := objKey(info.Uses[n]); key != "" && !self[key] {
						g.uses[key] |= kind
					}
				case *ast.SelectorExpr:
					// A field or method selected through a type uses the type.
					if sel := info.Selections[n]; sel != nil {
						if key := typeKey(sel.Recv()); key != "" && !self[key] {
							g.uses[key] |= kind
						}
					}
				}
				return true
			})
		}
	}
}

// objKey names a package-level object "path.Name" and a method
// "path.Recv.Name", where Recv is the receiver's base type, so an
// instantiation of a generic type or method has its origin's key. It also
// returns the receiver's name, and "" for any other object.
func objKey(obj types.Object) (key, recv string) {
	if obj == nil || obj.Pkg() == nil {
		return "", ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if r := fn.Type().(*types.Signature).Recv(); r != nil {
			named := baseNamed(r.Type())
			if named == nil {
				return "", ""
			}
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name(), named.Obj().Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", ""
	}
	return obj.Pkg().Path() + "." + obj.Name(), ""
}

func typeKey(t types.Type) string {
	if named := baseNamed(t); named != nil && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path() + "." + named.Obj().Name()
	}
	return ""
}

// baseNamed returns the origin of the named type t or *t denotes, or nil.
func baseNamed(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin()
	}
	return nil
}

// interfaces returns error, the two Unwrap methods errors.Is and errors.As
// look for on an error, and the package-level interfaces of the module and
// of every package a program imports.
func (g *exportGuard) interfaces(programImports map[string]bool) ([]*types.Interface, error) {
	errType := types.Universe.Lookup("error").Type()
	ifaces := []*types.Interface{errType.Underlying().(*types.Interface)}
	for _, res := range []types.Type{errType, types.NewSlice(errType)} {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", res)), false)
		unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", sig)
		ifaces = append(ifaces, types.NewInterfaceType([]*types.Func{unwrap}, []types.Type{errType}).Complete())
	}
	for path := range g.pkgs {
		programImports[path] = true
	}
	for path := range programImports {
		p, err := g.Import(path)
		if err != nil {
			return nil, err
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	return ifaces, nil
}

// satisfies reports whether d is a method whose type, or a pointer to it,
// implements one of ifaces that has a method of d's name. A generic type
// is instantiated over its own type parameters, as a generic function's
// body sees it.
func (g *exportGuard) satisfies(d guardDecl, ifaces []*types.Interface) bool {
	if d.recv == "" {
		return false
	}
	tn, ok := g.checked[d.pkg].Scope().Lookup(d.recv).(*types.TypeName)
	if !ok {
		return false
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	var recv types.Type = named
	if tps := named.TypeParams(); tps.Len() > 0 {
		targs := make([]types.Type, tps.Len())
		for i := range targs {
			targs[i] = tps.At(i)
		}
		inst, err := types.Instantiate(nil, named, targs, false)
		if err != nil {
			return false
		}
		recv = inst
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == d.name && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}
