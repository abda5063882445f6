package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalExportsAreUsed enforces the rule that an exported function or
// method in internal/ is kept only if something outside its own package's
// tests names it: a non-test file anywhere in the module, or a _test.go file
// in another directory (Go cannot share test code across packages, so a
// cross-package oracle has to stay exported).
//
// Package-level functions are resolved through each file's imports; a bare
// name in a non-test file of the declaring package counts too. Methods are
// matched by selector name alone (any x.Name whose x is not an imported
// package's local name), which can only over-count uses, so the check
// never fails a method that something outside its package calls. A
// finding is fixed by deleting the symbol, or by moving it into its
// package's _test.go files as an unexported helper when its own tests
// need it.
func TestInternalExportsAreUsed(t *testing.T) {
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	var module string
	for _, line := range strings.Split(string(gomod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(m)
			break
		}
	}
	type decl struct {
		dir, name string
		method    bool
		pos       token.Pos
	}
	var decls []decl
	usedFuncs := map[string]bool{}           // dir + "." + name
	usedSels := map[string]map[string]bool{} // selector name -> dirs naming it ("" for a non-test file)

	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		isTest := strings.HasSuffix(p, "_test.go")
		if strings.HasPrefix(dir, "internal/") && !isTest {
			for _, dd := range f.Decls {
				if fd, ok := dd.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls = append(decls, decl{dir, fd.Name.Name, fd.Recv != nil, fd.Name.Pos()})
				}
			}
		}

		// Every import's local name is recorded, so a qualified name
		// (math.Exp, flag.Bool) is never taken for a method. Only the
		// module's packages are resolved; a test file names nothing for
		// its own directory's package.
		imports := map[string]string{} // local name -> directory, or "" if not counted
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			rel, ok := strings.CutPrefix(ip, module+"/")
			if !ok || isTest && rel == dir {
				rel = ""
			}
			local := path.Base(ip)
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = rel
		}
		selDir := ""
		if isTest {
			selDir = dir
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl: // the declared name is not a use
				if x.Recv != nil {
					ast.Inspect(x.Recv, visit)
				}
				ast.Inspect(x.Type, visit)
				if x.Body != nil {
					ast.Inspect(x.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if pkg, ok := imports[id.Name]; ok {
						if pkg != "" {
							usedFuncs[pkg+"."+x.Sel.Name] = true
						}
						return false
					}
				}
				if usedSels[x.Sel.Name] == nil {
					usedSels[x.Sel.Name] = map[string]bool{}
				}
				usedSels[x.Sel.Name][selDir] = true
			case *ast.Ident:
				if !isTest {
					usedFuncs[dir+"."+x.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var bad []string
	for _, d := range decls {
		used := usedFuncs[d.dir+"."+d.name]
		if d.method {
			used = false
			for from := range usedSels[d.name] {
				used = used || from != d.dir
			}
		}
		if !used {
			bad = append(bad, fset.Position(d.pos).String()+": "+d.name)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s is exported from internal/ but nothing outside its own package's tests names it", b)
	}
}
