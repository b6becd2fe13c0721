package paw

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// stdlibMethods are method names the standard library calls through an
// interface (fmt.Stringer, error, json.Marshaler, http.Handler, io.Reader,
// sort.Interface, errors.Unwrap, slog.LogValuer, …): a type may declare one
// that no line of this repository calls.
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
	"Set":      true,
	"LogValue": true,
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

// loadRepo parses every Go file of the module once, tests included, for the
// tests that type-check it, and returns the importer over the parse.
var loadRepo = sync.OnceValues(func() (*repoImporter, error) {
	// With cgo off, go/build picks the pure-Go files of every package, so no
	// C toolchain runs.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := &repoImporter{fset: fset, pkgs: map[string]*goPackage{}, known: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
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
		ipath := "paw"
		if dir != "." {
			ipath += "/" + dir
		}
		p := imp.pkgs[ipath]
		if p == nil {
			p = &goPackage{dir: dir, path: ipath}
			imp.pkgs[ipath] = p
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
	return imp, err
})

// TestExportedFunctionsHaveCallers holds every function and method declared
// in a non-test file of the root package, internal/ or cmd/ to what callers
// use; main and init are exempt. Every package of the repository (benchmark/
// and examples/ included) is type-checked with its tests, and a function or
// method passes when a use in a non-test file anywhere, or (an exported one)
// in a test file of another directory, resolves to it. A method also passes
// when a use resolves to an interface method of its name (the call may
// dispatch to it), or when the standard library calls it through an
// interface (stdlibMethods). A name used only by the tests of its own package
// is a probe: unexport it or move it into a _test.go file. A name used
// nowhere is dead: delete it.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	imp, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	fset := imp.fset
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
				if fn, ok := decl.(*ast.FuncDecl); ok && !(fn.Recv == nil && (fn.Name.Name == "main" || fn.Name.Name == "init")) {
					decls = append(decls, fn)
					declDir[fn] = p.dir
					declKey[fn] = funcKey(info.Defs[fn.Name].(*types.Func))
				}
			}
		}
	}
	for _, p := range imp.pkgs {
		if len(p.files)+len(p.testFiles) > 0 {
			check(p, p.path, append(p.files[:len(p.files):len(p.files)], p.testFiles...))
		}
		if len(p.xTestFiles) > 0 {
			check(p, p.path+"_test", p.xTestFiles)
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no functions in the root package, internal/ or cmd/")
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

// docName is a backticked qualified Go name in prose: `pkg.Name` or
// `pkg.Type.Member`, a call's empty parentheses allowed.
var docName = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?(?:\\(\\))?`")

// TestDocNamesResolve holds README.md and TESTING.md to the code: every
// backticked qualified name whose package is one of this module's (paw for
// the root) must name a declaration of that package, or a field or method of
// one of its types — `pkg.Type.Member`, or `pkg.Member` for short. A name of
// another package (the standard library's, a metric's) is not checked.
func TestDocNamesResolve(t *testing.T) {
	imp, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string][]string{} // package name -> import paths
	for path, p := range imp.pkgs {
		if len(p.files) > 0 && p.files[0].Name.Name != "main" {
			paths[p.files[0].Name.Name] = append(paths[p.files[0].Name.Name], path)
		}
	}
	// hasMember reports whether type name tn has a field or method member.
	hasMember := func(obj types.Object, member string) bool {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return false
		}
		m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), member)
		return m != nil
	}
	resolves := func(pkgName, name, member string) bool {
		for _, path := range paths[pkgName] {
			pkg, err := imp.Import(path)
			if err != nil {
				t.Fatalf("type-checking %s: %v", path, err)
			}
			scope := pkg.Scope()
			if member != "" {
				if hasMember(scope.Lookup(name), member) {
					return true
				}
				continue
			}
			if scope.Lookup(name) != nil {
				return true
			}
			for _, n := range scope.Names() {
				if hasMember(scope.Lookup(n), name) {
					return true
				}
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "TESTING.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, m := range docName.FindAllStringSubmatch(string(src), -1) {
			if paths[m[1]] == nil {
				continue
			}
			checked++
			if !resolves(m[1], m[2], m[3]) {
				t.Errorf("%s cites %s, which package %s does not declare", doc, m[0], m[1])
			}
		}
		if checked == 0 {
			t.Errorf("%s cites no qualified name of this module: the pattern no longer matches its prose", doc)
		}
	}
}

// flagDecl is a flag definition's method: flag.String("name", …),
// fs.IntVar(&v, "name", …) and the like.
var flagDecl = regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|Var|TextVar)(Var)?$`)

// TestDocFlagsExist holds the command lines of README.md's and TESTING.md's
// fenced blocks, and the usage lines of each cmd/<bin>/main.go doc comment,
// to the flags the binaries define: every -flag after a `go run ./cmd/<bin>`
// or a `<bin>` that starts a command must be one that a flag.X("name", …) or
// fs.X("name", …) call in cmd/<bin> defines. A table row of either document
// whose first cell is a backticked -flag must name a flag some binary
// defines.
func TestDocFlagsExist(t *testing.T) {
	imp, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{} // binary -> flag names
	usage := map[string][]string{}        // file -> its doc comment's code lines
	for path, p := range imp.pkgs {
		bin, ok := strings.CutPrefix(path, "paw/cmd/")
		if !ok {
			continue
		}
		flags[bin] = map[string]bool{"h": true, "help": true}
		// The repository's parse drops comments: read the doc comment again.
		main := p.dir + "/main.go"
		doc, err := parser.ParseFile(imp.fset, main, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(doc.Doc.Text(), "\n") {
			if strings.HasPrefix(line, "\t") {
				usage[main] = append(usage[main], line)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !flagDecl.MatchString(sel.Sel.Name) {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" && x.Name != "fs" {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						flags[bin][strings.Trim(lit.Value, "`\"")] = true
						break
					}
				}
				return true
			})
		}
	}
	check := func(where string, lines []string) int {
		commands := 0
		for _, cmd := range shellCommands(lines) {
			bin, args := "", cmd
			switch {
			case len(cmd) > 2 && cmd[0] == "go" && cmd[1] == "run":
				if b, ok := strings.CutPrefix(cmd[2], "./cmd/"); ok {
					bin, args = b, cmd[3:]
				}
			case len(cmd) > 0:
				bin, args = cmd[0], cmd[1:]
			}
			defined := flags[bin]
			if defined == nil {
				continue
			}
			commands++
			for _, arg := range args {
				name, ok := strings.CutPrefix(arg, "-")
				if !ok || name == "" || !(name[0] >= 'a' && name[0] <= 'z' || name[0] == '-') {
					continue
				}
				name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
				if !defined[name] {
					t.Errorf("%s runs %s -%s, which cmd/%s does not define", where, bin, name, bin)
				}
			}
		}
		return commands
	}
	anyBinary := map[string]bool{}
	for _, defined := range flags {
		maps.Copy(anyBinary, defined)
	}
	for _, doc := range []string{"README.md", "TESTING.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var block []string
		in := false
		for _, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				in = !in
				continue
			}
			if in {
				block = append(block, strings.TrimPrefix(strings.TrimSpace(line), "$ "))
			}
			if row, ok := strings.CutPrefix(line, "| `-"); ok {
				name := strings.TrimPrefix(row[:strings.IndexAny(row+"`", "` =")], "-")
				if !anyBinary[name] {
					t.Errorf("%s documents -%s in a table, which no binary of cmd/ defines", doc, name)
				}
			}
		}
		if check(doc, block) == 0 && doc == "README.md" {
			t.Errorf("%s runs no binary of cmd/: its fenced blocks no longer parse", doc)
		}
	}
	commands := 0
	for main, lines := range usage {
		commands += check(main, lines)
	}
	if commands == 0 {
		t.Error("no cmd doc comment runs a binary of cmd/")
	}
}

// shellCommands splits shell lines into commands — a trailing backslash
// continues a line; |, ;, & and && end a command — and each command into
// words. A quoted word is kept with its quotes, so it never reads as a flag.
func shellCommands(lines []string) [][]string {
	var out [][]string
	var cmd []string
	word, quote := "", rune(0)
	endWord := func() {
		if word != "" {
			cmd = append(cmd, word)
		}
		word = ""
	}
	endCmd := func() {
		endWord()
		if len(cmd) > 0 {
			out = append(out, cmd)
		}
		cmd = nil
	}
	for _, line := range lines {
		line = strings.TrimSpace(line)
		cont := strings.HasSuffix(line, "\\")
		for _, r := range strings.TrimSuffix(line, "\\") {
			switch {
			case quote != 0:
				word += string(r)
				if r == quote {
					quote = 0
				}
			case r == '\'' || r == '"':
				word += string(r)
				quote = r
			case r == ' ' || r == '\t':
				endWord()
			case r == '|' || r == ';' || r == '&':
				endCmd()
			default:
				word += string(r)
			}
		}
		if !cont {
			quote = 0
			endCmd()
		}
		endWord()
	}
	endCmd()
	return out
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
