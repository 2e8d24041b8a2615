package vcache

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are exported method names a type declares to satisfy
// a standard interface; the standard library calls them, not the module.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true,
}

// TestEveryExportHasACaller: every exported function and method declared
// in the module's non-test code outside perfbench is referenced somewhere
// in the module — test files and perfbench count — so an export nothing
// calls is deleted instead of kept as surface.
//
// The check goes by name, not by type: a name counts as referenced when
// any identifier in the module spells it, other than the declarations of
// functions and methods themselves. It cannot see an uncalled export whose
// name collides with another identifier (a method Config beside a type
// Config, or a method Space beside a field space.Space).
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ name, where string }
	var decls []decl
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		audited := !strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(filepath.ToSlash(path), "perfbench/")
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if audited && fd.Name.IsExported() && !interfaceMethods[fd.Name.Name] {
				name := fd.Name.Name
				if fd.Recv != nil {
					name = receiverType(fd.Recv.List[0].Type) + "." + name
				}
				decls = append(decls, decl{fd.Name.Name, filepath.ToSlash(filepath.Dir(path)) + ": " + name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for _, d := range decls {
		if !used[d.name] {
			uncalled = append(uncalled, d.where)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("exported but referenced nowhere in the module; delete them or unexport them:\n  %s", strings.Join(uncalled, "\n  "))
	}
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
