// Command stdversion fails when a module uses a standard-library symbol
// that is newer than the Go version its go.mod declares.
//
//	go run ./scripts/stdversion [module-dir]
//
// A toolchain newer than go.mod compiles such a use without complaint,
// and go vet's stdversion analyzer misses some of them (a method
// promoted from an unexported embedded type, such as
// (*testing.T).Chdir), so only a build on the declared version would
// fail. This check type-checks every package of the module together
// with its tests (go/types; the standard library through the source
// importer, the module's own packages from their directories) and
// looks every used standard-library object up in
// $GOROOT/api/go1.N.txt: a function, type, constant or variable by its
// name, a method or field by each named type its selection passes
// through, as the API files list promoted methods under the embedding
// type. A symbol first listed for a minor version above go.mod's, and
// in no file at or below it, is reported with its position, and the
// command exits 1. Directories holding their own go.mod, testdata and
// hidden directories are skipped. Type errors are ignored: the
// compiler reports them, and this check needs only the objects it
// could resolve.
package main

import (
	"bufio"
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
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stdversion:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// run checks the module rooted at root and returns one line per use of
// a symbol newer than its go.mod, sorted.
func run(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, minor, err := readGoMod(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// Pure-Go variants of the cgo packages are enough to resolve the
	// standard library's API, and need no C toolchain.
	build.Default.CgoEnabled = false
	c := &checker{
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		minor:   minor,
		pkgs:    make(map[string]*types.Package),
		seen:    make(map[string]bool),
	}
	c.std = importer.ForCompiler(c.fset, "source", nil).(types.ImporterFrom)
	if c.newer, err = readAPI(build.Default.GOROOT, minor); err != nil {
		return nil, err
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
		}
		return c.checkDir(path)
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(c.findings)
	return c.findings, nil
}

var goLine = regexp.MustCompile(`(?m)^go 1\.(\d+)`)
var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// readGoMod returns the module path and the minor version of the go
// directive.
func readGoMod(path string) (string, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", 0, err
	}
	mod, ver := moduleLine.FindSubmatch(b), goLine.FindSubmatch(b)
	if mod == nil || ver == nil {
		return "", 0, fmt.Errorf("%s: no module path or go 1.N directive", path)
	}
	minor, err := strconv.Atoi(string(ver[1]))
	return string(mod[1]), minor, err
}

var (
	apiFile   = regexp.MustCompile(`^go1(?:\.(\d+))?\.txt$`)
	apiLine   = regexp.MustCompile(`^pkg ([^ ,]+)(?: \([^)]*\))?, (.*)$`)
	apiMethod = regexp.MustCompile(`^method \(\*?(\w+)[^)]*\) (\w+)`)
	apiMember = regexp.MustCompile(`^type (\w+)\b.*?\b(?:struct|interface), (?:embedded )?\*?(?:\w+\.)?(\w+)`)
	apiName   = regexp.MustCompile(`^(?:func|type|const|var) (\w+)`)
)

// apiKey turns one API file line into the key scan looks symbols up
// by: "pkg Name" for a package-level object, "pkg Type.Name" for a
// method, field or interface method.
func apiKey(line string) (string, bool) {
	m := apiLine.FindStringSubmatch(line)
	if m == nil {
		return "", false
	}
	pkg, rest := m[1], m[2]
	if s := apiMethod.FindStringSubmatch(rest); s != nil {
		return pkg + " " + s[1] + "." + s[2], true
	}
	if s := apiMember.FindStringSubmatch(rest); s != nil {
		return pkg + " " + s[1] + "." + s[2], true
	}
	if s := apiName.FindStringSubmatch(rest); s != nil {
		return pkg + " " + s[1], true
	}
	return "", false
}

// readAPI maps every API key first listed for a minor version above
// minor, and listed in no file at or below it, to that version.
func readAPI(goroot string, minor int) (map[string]int, error) {
	dir := filepath.Join(goroot, "api")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	newer := make(map[string]int)
	older := make(map[string]bool)
	for _, e := range entries {
		m := apiFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n := 0
		if m[1] != "" {
			n, _ = strconv.Atoi(m[1])
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			key, ok := apiKey(sc.Text())
			switch {
			case !ok:
			case n <= minor:
				older[key] = true
			case newer[key] == 0 || n < newer[key]:
				newer[key] = n
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	for key := range older {
		delete(newer, key)
	}
	return newer, nil
}

// checker type-checks the module's packages and collects findings.
type checker struct {
	fset          *token.FileSet
	root, modPath string
	minor         int
	std           types.ImporterFrom
	newer         map[string]int
	pkgs          map[string]*types.Package // module packages without tests
	seen          map[string]bool           // findings already reported
	findings      []string
}

// ImportFrom resolves the module's packages from their directories and
// everything else through the source importer.
func (c *checker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if !c.inModule(path) {
		return c.std.ImportFrom(path, dir, mode)
	}
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.Join(c.root, strings.TrimPrefix(path, c.modPath)), 0)
	if err != nil {
		return nil, err
	}
	p, _, err := c.check(path, bp.Dir, bp.GoFiles, c, false)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	return p, nil
}

func (c *checker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, c.root, 0)
}

// check parses and type-checks files of dir as package path and, with
// scan set, returns the objects the files use.
func (c *checker) check(path, dir string, files []string, imp types.Importer, scan bool) (*types.Package, *types.Info, error) {
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, nil, err
		}
		parsed = append(parsed, f)
	}
	var info *types.Info
	if scan {
		info = &types.Info{
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
	}
	conf := types.Config{Importer: imp, Error: func(error) {}}
	p, _ := conf.Check(path, c.fset, parsed, info)
	return p, info, nil
}

// testImporter resolves the package under test to its test build, so
// an external test package sees the helpers of its internal tests.
type testImporter struct {
	*checker
	path string
	pkg  *types.Package
}

func (t testImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == t.path {
		return t.pkg, nil
	}
	return t.checker.ImportFrom(path, dir, mode)
}

func (t testImporter) Import(path string) (*types.Package, error) {
	return t.ImportFrom(path, t.root, 0)
}

// checkDir checks the package in dir with its internal tests, then its
// external test package.
func (c *checker) checkDir(dir string) error {
	bp, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil
	}
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(c.root, dir)
	if err != nil {
		return err
	}
	path := c.modPath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	files := append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...)
	p, info, err := c.check(path, dir, files, c, true)
	if err != nil {
		return err
	}
	c.scan(info)
	if len(bp.XTestGoFiles) == 0 {
		return nil
	}
	_, info, err = c.check(path+"_test", dir, bp.XTestGoFiles, testImporter{c, path, p}, true)
	if err != nil {
		return err
	}
	c.scan(info)
	return nil
}

// scan reports every standard-library object info uses that the API
// files list only for a version above go.mod's.
func (c *checker) scan(info *types.Info) {
	for id, obj := range info.Uses {
		pkg := obj.Pkg()
		if pkg == nil || !c.isStd(pkg.Path()) {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				if named := namedOf(recv.Type()); named != nil {
					c.lookup(id.Pos(), pkg.Path()+" "+named.Obj().Name()+"."+o.Name())
				}
				continue
			}
		case *types.Var:
			if o.IsField() {
				continue // looked up through its selection
			}
		}
		if obj.Parent() == pkg.Scope() {
			c.lookup(id.Pos(), pkg.Path()+" "+obj.Name())
		}
	}
	for sel, s := range info.Selections {
		name := s.Obj().Name()
		t := s.Recv()
		for k, i := range s.Index() {
			named := namedOf(t)
			if named != nil && named.Obj().Pkg() != nil && c.isStd(named.Obj().Pkg().Path()) {
				c.lookup(sel.Sel.Pos(), named.Obj().Pkg().Path()+" "+named.Obj().Name()+"."+name)
			}
			if k == len(s.Index())-1 {
				break
			}
			st, ok := types.Unalias(derefType(t)).Underlying().(*types.Struct)
			if !ok {
				break
			}
			t = st.Field(i).Type()
		}
	}
}

// lookup records a finding when key names a symbol newer than go.mod.
func (c *checker) lookup(pos token.Pos, key string) {
	n, ok := c.newer[key]
	if !ok {
		return
	}
	p := c.fset.Position(pos)
	if rel, err := filepath.Rel(c.root, p.Filename); err == nil {
		p.Filename = rel
	}
	line := fmt.Sprintf("%s: %s requires go1.%d (go.mod declares go1.%d)", p, strings.Replace(key, " ", ".", 1), n, c.minor)
	if !c.seen[line] {
		c.seen[line] = true
		c.findings = append(c.findings, line)
	}
}

func derefType(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the named type t or *t denotes, or nil.
func namedOf(t types.Type) *types.Named {
	n, _ := types.Unalias(derefType(t)).(*types.Named)
	return n
}

// inModule reports whether an import path names a package of the
// checked module.
func (c *checker) inModule(path string) bool {
	return path == c.modPath || path == c.modPath+"_test" || strings.HasPrefix(path, c.modPath+"/")
}

// isStd reports whether an import path belongs to the standard
// library: it is outside the module and its first element has no dot.
func (c *checker) isStd(path string) bool {
	first, _, _ := strings.Cut(path, "/")
	return !c.inModule(path) && !strings.Contains(first, ".")
}
