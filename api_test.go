package paw

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdlibMethods are method names the standard library calls through an
// interface (fmt.Stringer, error, json.Marshaler, http.Handler, io.Reader,
// sort.Interface, errors.Unwrap, …): a type may declare one that no line of
// this repository calls.
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

// goPackage is the Go source of one directory: its non-test files, the test
// files of the same package, and the test files of its _test package.
type goPackage struct {
	dir, path                    string
	files, testFiles, xTestFiles []*ast.File
}

// repoImporter type-checks an import of this repository from the files
// already parsed, without function bodies, and any other import (the
// standard library) from source; it checks each package once.
type repoImporter struct {
	fset  *token.FileSet
	pkgs  map[string]*goPackage // by import path
	std   types.ImporterFrom
	known map[string]*types.Package
}

func (r *repoImporter) Import(path string) (*types.Package, error) {
	return r.ImportFrom(path, ".", 0)
}

func (r *repoImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := r.known[path]; pkg != nil {
		return pkg, nil
	}
	var pkg *types.Package
	var err error
	if p := r.pkgs[path]; p != nil {
		conf := types.Config{Importer: r, IgnoreFuncBodies: true}
		pkg, err = conf.Check(path, r.fset, p.files, nil)
	} else {
		pkg, err = r.std.ImportFrom(path, dir, mode)
	}
	if err != nil {
		return nil, err
	}
	r.known[path] = pkg
	return pkg, nil
}

// TestExportedFunctionsHaveCallers holds the exported surface of the root
// package, internal/ and cmd/ to what callers use. Every package of the
// repository (benchmark/ and examples/ included) is type-checked with its
// tests, and an exported function or method passes when a use in a non-test
// file anywhere, or in a test file of another directory, resolves to it. A
// method also passes when a use resolves to an interface method of its name
// (the call may dispatch to it), or when the standard library calls it
// through an interface (stdlibMethods). A name used only by the tests of its
// own package is a probe: unexport it or move it into a _test.go file. A name
// used nowhere is dead: delete it.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	// With cgo off, go/build picks the pure-Go files of every package, so no
	// C toolchain runs.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	pkgs := map[string]*goPackage{}
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
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil {
			return err // a file the build constraints leave out
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, abs, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		p := pkgs[dir]
		if p == nil {
			p = &goPackage{dir: dir, path: "paw"}
			if dir != "." {
				p.path += "/" + dir
			}
			pkgs[dir] = p
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xTestFiles = append(p.xTestFiles, f)
		case strings.HasSuffix(path, "_test.go"):
			p.testFiles = append(p.testFiles, f)
		default:
			p.files = append(p.files, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	imp := &repoImporter{fset: fset, pkgs: map[string]*goPackage{}, known: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
	for _, p := range pkgs {
		imp.pkgs[p.path] = p
	}
	var decls []*ast.FuncDecl
	declDir := map[*ast.FuncDecl]string{}
	declKey := map[*ast.FuncDecl]string{}
	used := map[string]bool{}                 // keys used in a non-test file
	testUsers := map[string]map[string]bool{} // key -> directories of test files that use it
	ifaceUsed := map[string]bool{}            // names of interface methods used anywhere
	check := func(p *goPackage, path string, files []*ast.File) {
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp, Error: func(err error) { t.Errorf("type-checking %s: %v", path, err) }}
		conf.Check(path, fset, files, info)
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceUsed[fn.Name()] = true
				continue
			}
			key := funcKey(fn)
			if !strings.HasSuffix(fset.Position(id.Pos()).Filename, "_test.go") {
				used[key] = true
				continue
			}
			if testUsers[key] == nil {
				testUsers[key] = map[string]bool{}
			}
			testUsers[key][p.dir] = true
		}
		for _, f := range files {
			if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") ||
				!(p.dir == "." || strings.HasPrefix(p.dir, "internal/") || strings.HasPrefix(p.dir, "cmd/")) {
				continue
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
					decls = append(decls, fn)
					declDir[fn] = p.dir
					declKey[fn] = funcKey(info.Defs[fn.Name].(*types.Func))
				}
			}
		}
	}
	for _, p := range pkgs {
		if len(p.files)+len(p.testFiles) > 0 {
			check(p, p.path, append(p.files[:len(p.files):len(p.files)], p.testFiles...))
		}
		if len(p.xTestFiles) > 0 {
			check(p, p.path+"_test", p.xTestFiles)
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions in the root package, internal/ or cmd/")
	}

	var bad []string
	for _, fn := range decls {
		name, key, dir := fn.Name.Name, declKey[fn], declDir[fn]
		if used[key] || hasTestPrefix(name) || fn.Recv != nil && (ifaceUsed[name] || stdlibMethods[name]) {
			continue
		}
		elsewhere := false
		for d := range testUsers[key] {
			if d != dir {
				elsewhere = true
			}
		}
		if elsewhere {
			continue
		}
		how := "no file calls it: delete it"
		if testUsers[key][dir] {
			how = "only its own package's tests call it: delete it with them, or unexport it or move it into a _test.go file if it is their oracle"
		}
		shown := name
		if fn.Recv != nil {
			shown = receiverName(fn.Recv.List[0].Type) + "." + name
		}
		pkg := dir
		if pkg == "." {
			pkg = "paw"
		}
		bad = append(bad, fset.Position(fn.Name.Pos()).String()+": "+pkg+"."+shown+": "+how)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// funcKey names a function or a concrete method the same way in every
// type-checked copy of its package: the package path, the receiver's type
// name (a method of *T and of T alike), and the name.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	key := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			key += n.Obj().Name() + "."
		}
	}
	return key + fn.Name()
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
