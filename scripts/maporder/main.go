// Command maporder lists every range over a Go map in the non-test code
// under internal/ whose body may depend on the order the map is visited in,
// as `file:line pkg.Recv.Name: why`, and exits 1 if scripts/maporder.allow
// does not name the function, or if the allow-list names a function that
// has no such range. Run it from the module root:
//
//	go run ./scripts/maporder   # make maporder
//
// Go visits a map in a different order on every run, so a same-seed rerun
// repeats only if each such loop's effect is independent of that order. A
// range counts as one over a map when its operand is a map or a call of
// maps.Keys, maps.Values or maps.All. Its body is order-free when it
//   - leaves the loop only by continue, and calls nothing but conversions
//     and len, cap, min, max, append and delete;
//   - stores only to variables it declares (the range's own included, so a
//     field of the visited value is fine), to m[k] with k the range key,
//     by x++, x--, or an integer +=, -=, |=, &= or ^=, or by s = append(s,
//     …) with s sorted by a later sort.Sort, Stable, Slice, SliceStable,
//     Strings, Ints, Float64s or slices.Sort* call in the same function
//     (the tool trusts the comparator to be a total order);
//   - reads no outside variable it stores to, other than in that store.
//
// Everything else (an early exit, a last-writer-wins store, a call that
// may have effects) is listed for a reader to judge, and an allow-list line
// `pkg.Recv.Name reason` records the judgement. Types come from go/types,
// with the standard library's source importer: no tool outside it.
//
// With -unused it answers another question on the same type-checked source,
// for scripts/deadcode.sh: it prints, as `file:line pkg.Name`, every
// package-level var or const declared in non-test internal/ code that no
// non-test code of the module (internal/, cmd/, examples/, bench/) names,
// and exits 0; the script judges the list against its allow-list.
//
//	go run ./scripts/maporder -unused   # part of make deadcode
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

const allowFile = "scripts/maporder.allow"

func main() {
	unused := flag.Bool("unused", false, "list the package-level vars and consts of internal/ that no non-test code names")
	flag.Parse()
	var err error
	if *unused {
		err = listUnused()
	} else {
		var allowed map[string]bool
		if allowed, err = readAllow(); err == nil {
			err = scan(allowed)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "maporder:", err)
		os.Exit(2)
	}
}

// load type-checks the non-test files of every package under each root, as
// the module's import path of its directory, and hands each package to visit.
func load(fset *token.FileSet, visit func(bp *build.Package, files []*ast.File, info *types.Info), roots ...string) error {
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		return err
	}
	var module string
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			bp, err := build.Default.ImportDir(dir, 0)
			if _, none := err.(*build.NoGoError); none {
				return nil
			} else if err != nil {
				return err
			}
			var files []*ast.File
			for _, name := range bp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
				if err != nil {
					return err
				}
				files = append(files, f)
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{},
				Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			if _, err := conf.Check(module+"/"+filepath.ToSlash(dir), fset, files, info); err != nil {
				return err
			}
			visit(bp, files, info)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// listUnused prints every package-level var or const declared in non-test
// internal/ code that no non-test code of the module names, sorted by file
// and line. Objects are matched by package path and name: the source
// importer checks an imported package anew, so the same declaration is a
// different types.Object in each package that imports it.
func listUnused() error {
	fset := token.NewFileSet()
	type decl struct {
		pos  token.Position
		name string
	}
	declared := make(map[string]decl) // by package path.Name
	named := make(map[string]bool)
	global := func(obj types.Object) bool {
		switch obj.(type) {
		case *types.Var, *types.Const:
			return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() && obj.Name() != "_"
		}
		return false
	}
	err := load(fset, func(bp *build.Package, _ []*ast.File, info *types.Info) {
		for _, obj := range info.Uses {
			if global(obj) {
				named[obj.Pkg().Path()+"."+obj.Name()] = true
			}
		}
		if !strings.HasPrefix(filepath.ToSlash(bp.Dir), "internal/") {
			return
		}
		for id, obj := range info.Defs {
			if obj != nil && global(obj) {
				declared[obj.Pkg().Path()+"."+obj.Name()] = decl{fset.Position(id.Pos()), bp.Name + "." + obj.Name()}
			}
		}
	}, "internal", "cmd", "examples", "bench")
	if err != nil {
		return err
	}
	var dead []decl
	for key, d := range declared {
		if !named[key] {
			dead = append(dead, d)
		}
	}
	slices.SortFunc(dead, func(a, b decl) int {
		return cmp.Or(cmp.Compare(a.pos.Filename, b.pos.Filename), cmp.Compare(a.pos.Line, b.pos.Line))
	})
	for _, d := range dead {
		fmt.Printf("%s:%d %s\n", d.pos.Filename, d.pos.Line, d.name)
	}
	return nil
}

// scan type-checks every package under internal/, prints each map range
// that is not order-free and not allowed, then every stale allow-list line,
// and exits 1 if it printed anything.
func scan(allowed map[string]bool) error {
	fset := token.NewFileSet()
	failed, used := false, make(map[string]bool)
	err := load(fset, func(bp *build.Package, files []*ast.File, info *types.Info) {
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := funcName(bp.Name, fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if rs, ok := n.(*ast.RangeStmt); ok && overMap(info, rs.X) {
						if why := (&checker{info: info, fn: fd.Body, loop: rs}).why(); why != "" && allowed[name] {
							used[name] = true
						} else if why != "" {
							fmt.Printf("%s %s: %s\n", fset.Position(rs.Pos()), name, why)
							failed = true
						}
					}
					return true
				})
			}
		}
	}, "internal")
	if err != nil {
		return err
	}
	for name := range allowed {
		if !used[name] {
			fmt.Printf("%s names %s, which has no order-dependent map range\n", allowFile, name)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	return nil
}

// funcName returns pkg.Name or pkg.Recv.Name for a declaration.
func funcName(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return pkg + "." + x.Name + "." + fd.Name.Name
		default:
			return pkg + "." + fd.Name.Name
		}
	}
}

// readAllow returns the functions the allow-list names, each with a reason.
func readAllow() (map[string]bool, error) {
	f, err := os.Open(allowFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 1 {
			return nil, fmt.Errorf("%s: %s gives no reason", allowFile, fields[0])
		} else if len(fields) > 1 {
			allowed[fields[0]] = true
		}
	}
	return allowed, sc.Err()
}

// overMap reports whether ranging over x visits a map in Go's order.
func overMap(info *types.Info, x ast.Expr) bool {
	if _, ok := info.TypeOf(x).Underlying().(*types.Map); ok {
		return true
	}
	if call, ok := ast.Unparen(x).(*ast.CallExpr); ok {
		return isFunc(info, call.Fun, "maps", "Keys", "Values", "All")
	}
	return false
}

// isFunc reports whether fun names one of the functions of package pkg.
func isFunc(info *types.Info, fun ast.Expr, pkg string, names ...string) bool {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkg && slices.Contains(names, fn.Name())
}

// checker judges one map range's body.
type checker struct {
	info *types.Info
	fn   *ast.BlockStmt // the enclosing function's body
	loop *ast.RangeStmt
}

func (ch *checker) obj(id *ast.Ident) types.Object {
	if obj := ch.info.Defs[id]; obj != nil {
		return obj
	}
	return ch.info.Uses[id]
}

// local reports whether obj is declared inside the range statement.
func (ch *checker) local(obj types.Object) bool {
	return obj != nil && obj.Pos() >= ch.loop.Pos() && obj.Pos() < ch.loop.End()
}

// why returns why the body may depend on visiting order, or "".
func (ch *checker) why() string {
	var why string
	fail := func(s string) {
		if why == "" {
			why = s
		}
	}
	stored := make(map[types.Object]bool)   // outside variables the body stores to
	targets := make(map[*ast.Ident]bool)    // their mentions as store targets
	appended := make(map[types.Object]bool) // outside slices it appends to
	store := func(l ast.Expr, tok token.Token, rhs ast.Expr) {
		root := l
		for {
			switch x := ast.Unparen(root).(type) {
			case *ast.SelectorExpr:
				root = x.X
				continue
			case *ast.IndexExpr:
				root = x.X
				continue
			case *ast.StarExpr:
				root = x.X
				continue
			}
			break
		}
		id, ok := ast.Unparen(root).(*ast.Ident)
		if !ok {
			fail("stores through " + types.ExprString(root))
			return
		}
		if id.Name == "_" || ch.local(ch.obj(id)) {
			return
		}
		obj := ch.obj(id)
		stored[obj], targets[id] = true, true
		switch tok {
		case token.INC, token.DEC:
			return
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			if b, ok := ch.info.TypeOf(l).Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return
			}
		case token.ASSIGN:
			if call, ok := rhs.(*ast.CallExpr); ok && l == root && ch.builtin(call.Fun, "append") {
				if first, ok := call.Args[0].(*ast.Ident); ok && ch.obj(first) == obj {
					appended[obj], targets[first] = true, true
					return
				}
			}
			if ix, ok := l.(*ast.IndexExpr); ok {
				k, _ := ix.Index.(*ast.Ident)
				if key, _ := ch.loop.Key.(*ast.Ident); k != nil && key != nil && ch.obj(k) == ch.obj(key) {
					return // each visit stores under its own key
				}
			}
		}
		fail(fmt.Sprintf("stores to %s by %s, so the visiting order shows", types.ExprString(l), tok))
	}
	ast.Inspect(ch.loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			fail("returns from inside the loop")
		case *ast.BranchStmt:
			if n.Tok != token.CONTINUE || n.Label != nil {
				fail("leaves the loop early (" + n.Tok.String() + ")")
			}
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt, *ast.SendStmt, *ast.SelectStmt:
			fail(fmt.Sprintf("has a %T", n))
		case *ast.CallExpr:
			if tv, ok := ch.info.Types[n.Fun]; !(ok && tv.IsType()) && !ch.builtin(n.Fun, "len", "cap", "min", "max", "append", "delete") {
				fail("calls " + types.ExprString(n.Fun))
			}
		case *ast.IncDecStmt:
			store(n.X, n.Tok, nil)
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for i, l := range n.Lhs {
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					store(l, n.Tok, rhs)
				}
			}
		}
		return true
	})
	ast.Inspect(ch.loop.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && stored[ch.info.Uses[id]] && !targets[id] {
			fail("reads " + id.Name + ", which the loop stores to")
		}
		return true
	})
	for obj := range appended {
		if !ch.sortedAfter(obj) {
			fail("appends to " + obj.Name() + ", which is not sorted after the loop")
		}
	}
	return why
}

func (ch *checker) builtin(fun ast.Expr, names ...string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || !slices.Contains(names, id.Name) {
		return false
	}
	_, ok = ch.info.Uses[id].(*types.Builtin)
	return ok
}

// sortedAfter reports whether a call after the loop in the enclosing
// function sorts obj (or a conversion of it).
func (ch *checker) sortedAfter(obj types.Object) bool {
	found := false
	ast.Inspect(ch.fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if found || !ok || call.Pos() < ch.loop.End() || len(call.Args) == 0 ||
			!isFunc(ch.info, call.Fun, "sort", "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s") &&
				!isFunc(ch.info, call.Fun, "slices", "Sort", "SortFunc", "SortStableFunc") {
			return !found
		}
		arg := ast.Unparen(call.Args[0])
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 && ch.info.Types[conv.Fun].IsType() {
			arg = ast.Unparen(conv.Args[0])
		}
		id, ok := arg.(*ast.Ident)
		found = ok && ch.info.Uses[id] == obj
		return !found
	})
	return found
}
