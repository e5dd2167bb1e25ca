package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// internalPrefix is the import path of the packages whose exports the
// test holds to their users. query and the facade are the public API and
// answer to their callers outside the module instead.
const internalPrefix = "elastichtap/internal/"

// exportKey names a declaration across type-checks: each Check gives a
// package its own copies of its dependencies' objects, so object
// identity does not survive from one package to the next.
type exportKey struct{ pkg, recv, name string }

func (k exportKey) String() string {
	if k.recv != "" {
		return k.pkg + "." + k.recv + "." + k.name
	}
	return k.pkg + "." + k.name
}

// TestInternalExportsAreUsed fails on an exported package-level name or
// exported method under internal/ that no non-test file of the module or
// of bench/ uses. A use inside the name's own package counts. A method
// also counts as used when some interface in the program declares a
// method of its name and signature (the golden olap.Query methods, the
// wal.FS implementations, Error, String). Struct fields are not checked.
// A declaration whose doc comment carries "//htap:api <reason>" is kept
// without a user; the reason may not be empty.
func TestInternalExportsAreUsed(t *testing.T) {
	var pkgs []*Package
	for _, dir := range []string{"../..", "../../bench"} {
		loaded, err := Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
	}
	for _, msg := range unusedExports(pkgs) {
		t.Error(msg)
	}
}

// unusedExports returns one message per unused, unannotated export and
// per //htap:api annotation without a reason, sorted.
func unusedExports(pkgs []*Package) []string {
	used := map[exportKey]bool{}
	// ifaces holds methodSig of every interface method. errors.Is, As and
	// Unwrap assert interfaces declared inside their function bodies,
	// which no package scope lists.
	ifaces := map[string]bool{"Is(error) bool": true, "As(any) bool": true, "Unwrap() error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				ifaces[methodSig(m)] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var scanScope func(p *types.Package)
	scanScope = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scanScope(imp)
		}
	}
	for _, p := range pkgs {
		scanScope(p.Pkg)
		for _, tv := range p.TypesInfo.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, obj := range p.TypesInfo.Uses {
			if k, ok := keyOf(obj); ok {
				used[k] = true
			}
		}
	}

	var out []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, internalPrefix) {
			continue
		}
		for _, f := range p.Files {
			for _, d := range exportedDecls(p, f) {
				k, ok := keyOf(d.obj)
				if !ok {
					continue
				}
				pos := p.Fset.Position(d.pos)
				if reason, ok := apiReason(d.docs); ok {
					if reason == "" {
						out = append(out, pos.String()+": //htap:api on "+k.String()+" gives no reason")
					}
					continue
				}
				if used[k] {
					continue
				}
				if fn, ok := d.obj.(*types.Func); ok && ReceiverType(fn) != nil && ifaces[methodSig(fn)] {
					continue
				}
				out = append(out, pos.String()+": "+k.String()+" is exported but no non-test file uses it")
			}
		}
	}
	sort.Strings(out)
	return out
}

// methodSig renders a method's name and signature without parameter
// names or receiver, packages by path and the empty interface as any:
// "Write([]byte) (int, error)".
func methodSig(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	tuple := func(t *types.Tuple) string {
		s := make([]string, t.Len())
		for i := range s {
			s[i] = types.TypeString(t.At(i).Type(), func(p *types.Package) string { return p.Path() })
		}
		if sig.Variadic() && t == sig.Params() {
			s[len(s)-1] = "..." + strings.TrimPrefix(s[len(s)-1], "[]")
		}
		return strings.ReplaceAll(strings.Join(s, ", "), "interface{}", "any")
	}
	out := fn.Name() + "(" + tuple(sig.Params()) + ")"
	switch sig.Results().Len() {
	case 0:
	case 1:
		out += " " + tuple(sig.Results())
	default:
		out += " (" + tuple(sig.Results()) + ")"
	}
	return out
}

// keyOf keys a package-level object or a method; fields, locals and
// objects outside internal/ report false.
func keyOf(obj types.Object) (exportKey, bool) {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), internalPrefix) {
		return exportKey{}, false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := ReceiverType(fn.Origin()); recv != nil {
			return exportKey{obj.Pkg().Path(), recv.Name(), obj.Name()}, true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return exportKey{}, false
	}
	return exportKey{obj.Pkg().Path(), "", obj.Name()}, true
}

// exportedDecl is one exported declaration with the doc comments that
// may annotate it: a spec's own and its enclosing declaration's.
type exportedDecl struct {
	obj  types.Object
	pos  token.Pos
	docs []*ast.CommentGroup
}

func exportedDecls(p *Package, f *ast.File) []exportedDecl {
	var out []exportedDecl
	add := func(id *ast.Ident, docs ...*ast.CommentGroup) {
		if id.IsExported() {
			if obj := p.TypesInfo.Defs[id]; obj != nil {
				out = append(out, exportedDecl{obj, id.Pos(), docs})
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			add(d.Name, d.Doc)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s.Doc, d.Doc)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s.Doc, d.Doc)
					}
				}
			}
		}
	}
	return out
}

// apiReason reports the reason of an //htap:api directive in any of the
// comment groups.
func apiReason(docs []*ast.CommentGroup) (string, bool) {
	for _, cg := range docs {
		if reason, ok := directive(cg, "api"); ok {
			return reason, true
		}
	}
	return "", false
}
