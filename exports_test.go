package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// deadExports lists the top-level exported identifiers under internal/
// that no other package names yet. The list may only shrink: a new
// unreferenced export fails TestNoDeadExports, and so does an entry here
// that is referenced (or gone) again.
var deadExports = []string{}

// TestNoDeadExports finds every top-level exported function, type,
// variable and constant declared in a non-test file under internal/ that
// no file of another package refers to as pkg.Name, and that no exported
// declaration of its own package exposes. Files anywhere in the module
// count as referrers — commands, examples, bench/, tests — except the
// package's own files in the same package clause: a name only the package
// itself uses should not be exported. Methods and struct fields are not
// checked.
func TestNoDeadExports(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	type file struct {
		dir  string // import path of the package the file belongs to
		test bool
		ast  *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path -> package name
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		dir := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		test := strings.HasSuffix(p, "_test.go")
		if !test {
			pkgName[dir] = f.Name.Name
		}
		files = append(files, file{dir, test, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	referenced := map[string]bool{}
	enumOf := map[string]string{} // exported constant -> its named type
	for _, f := range files {
		if strings.HasPrefix(f.dir, module+"/internal/") && !f.test {
			for _, d := range f.ast.Decls {
				for _, id := range topLevelNames(d) {
					if id.IsExported() {
						declared[f.dir+"."+id.Name] = true
					}
				}
				for c, typ := range constTypes(d) {
					enumOf[f.dir+"."+c] = f.dir + "." + typ
				}
				// A name the package's own exported API spells out — a
				// parameter, result, field or element type — is
				// reachable by every importer, named or not.
				for _, e := range exposedTypes(d) {
					ast.Inspect(e, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && id.IsExported() {
							referenced[f.dir+"."+id.Name] = true
						}
						return true
					})
				}
			}
		}
		imports := map[string]string{} // local name -> import path
		for _, spec := range f.ast.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			local := pkgName[p]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			// An external _test package imports its own directory.
			if local != "" && (p != f.dir || f.ast.Name.Name != pkgName[p]) {
				imports[local] = p
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					referenced[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var dead []string
	for id := range declared {
		// A constant of a type importers use is one of that type's values.
		if !referenced[id] && !referenced[enumOf[id]] {
			dead = append(dead, strings.TrimPrefix(id, module+"/"))
		}
	}
	slices.Sort(dead)
	for _, id := range dead {
		if !slices.Contains(deadExports, id) {
			t.Errorf("%s is exported but no other package refers to it: unexport or delete it", id)
		}
	}
	for _, id := range deadExports {
		if !slices.Contains(dead, id) {
			t.Errorf("%s is no longer an unreferenced export: remove it from deadExports", id)
		}
	}
}

// topLevelNames returns the identifiers a top-level declaration binds:
// functions (not methods), types, variables and constants.
func topLevelNames(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// exposedTypes returns the type expressions an exported declaration
// shows its importers: an exported function's or exported type's
// method's signature, an exported type's definition (exported fields
// only), and an exported variable's or constant's type and initializer.
func exposedTypes(d ast.Decl) []ast.Expr {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv != nil {
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); !ok || !id.IsExported() {
				return nil
			}
		}
		return []ast.Expr{d.Type}
	case *ast.GenDecl:
		var es []ast.Expr
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				st, ok := s.Type.(*ast.StructType)
				if !ok {
					es = append(es, s.Type)
					continue
				}
				for _, f := range st.Fields.List {
					if len(f.Names) == 0 || f.Names[0].IsExported() {
						es = append(es, f.Type)
					}
				}
			case *ast.ValueSpec:
				if !s.Names[0].IsExported() {
					continue
				}
				if s.Type != nil {
					es = append(es, s.Type)
				}
				es = append(es, s.Values...)
			}
		}
		return es
	}
	return nil
}

// constTypes maps each exported constant a const block declares to the
// named type it has, spelled on its spec or carried down the block by
// iota.
func constTypes(d ast.Decl) map[string]string {
	g, ok := d.(*ast.GenDecl)
	if !ok || g.Tok != token.CONST {
		return nil
	}
	out := map[string]string{}
	typ := ""
	for _, s := range g.Specs {
		v := s.(*ast.ValueSpec)
		if v.Type != nil || len(v.Values) > 0 {
			typ = ""
			if id, ok := v.Type.(*ast.Ident); ok {
				typ = id.Name
			}
		}
		for _, n := range v.Names {
			if typ != "" && n.IsExported() {
				out[n.Name] = typ
			}
		}
	}
	return out
}
