package paw

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

// stdlibMethods are method names the standard library calls through an
// interface (fmt.Stringer, error, json.Marshaler, http.Handler, io.Reader,
// sort.Interface, errors.Unwrap, …): a type may declare one that no line of
// this repository names.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Accept": true, "Addr": true, "Network": true,
	"LocalAddr": true, "RemoteAddr": true, "SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"Timeout": true, "Temporary": true,
	"Deadline": true, "Done": true, "Err": true, "Value": true,
	"Set": true,
}

// exportedDecl is an exported function or method declared in a non-test file
// of the root package or under internal/ or cmd/.
type exportedDecl struct {
	dir, name, shown string
	pos              token.Position
}

// TestExportedFunctionsHaveCallers holds the exported surface of the root
// package, internal/ and cmd/ to what callers use. An exported function or
// method passes when its name appears as an identifier in a non-test file
// anywhere in the repository (benchmark/ and examples/ included; its own
// declaration does not count), or in a test file of another directory. A name
// used only by the tests of its own package is a probe: unexport it or move it
// into a _test.go file. A name used nowhere is dead: delete it. Matching is by
// name alone, so the check can miss dead code (a method that shares its name
// with a used one) but never flags code that is used.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	used := map[string]bool{}                 // names used in a non-test file
	testUsers := map[string]map[string]bool{} // name -> directories of test files that use it
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		declIdents := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declIdents[fn.Name] = true
			if isTest || !fn.Name.IsExported() || !(dir == "." || strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) {
				continue
			}
			shown := fn.Name.Name
			if fn.Recv != nil {
				if stdlibMethods[fn.Name.Name] {
					continue
				}
				shown = receiverName(fn.Recv.List[0].Type) + "." + shown
			}
			decls = append(decls, exportedDecl{dir: dir, name: fn.Name.Name, shown: shown, pos: fset.Position(fn.Name.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declIdents[id] {
				return true
			}
			if !isTest {
				used[id.Name] = true
				return true
			}
			if testUsers[id.Name] == nil {
				testUsers[id.Name] = map[string]bool{}
			}
			testUsers[id.Name][dir] = true
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions in the root package, internal/ or cmd/")
	}
	var bad []string
	for _, d := range decls {
		if used[d.name] || hasTestPrefix(d.name) {
			continue
		}
		elsewhere := false
		for dir := range testUsers[d.name] {
			if dir != d.dir {
				elsewhere = true
			}
		}
		if elsewhere {
			continue
		}
		how := "no file names it: delete it"
		if testUsers[d.name][d.dir] {
			how = "only its own package's tests name it: delete it with them, or unexport it or move it into a _test.go file if it is their oracle"
		}
		pkg := d.dir
		if pkg == "." {
			pkg = "paw"
		}
		bad = append(bad, d.pos.String()+": "+pkg+"."+d.shown+": "+how)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

func hasTestPrefix(name string) bool {
	for _, p := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// receiverName is the type name of a method's receiver, without its pointer
// or type parameters.
func receiverName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverName(x.X)
	case *ast.IndexExpr:
		return receiverName(x.X)
	case *ast.IndexListExpr:
		return receiverName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
