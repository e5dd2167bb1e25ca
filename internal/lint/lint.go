// Package lint is a minimal, dependency-free static-analysis framework
// in the shape of golang.org/x/tools/go/analysis, built on go/ast and
// go/types only (the module vendors nothing and CI builds offline). It
// exists to machine-check the invariants the engine's correctness rests
// on — zero-allocation hot paths, mutex-guarded state, deterministic
// merges and context plumbing — via the htaplint multichecker
// (cmd/htaplint) and the per-analyzer unit tests
// (internal/lint/linttest).
//
// Analyzers see one package at a time: its parsed files, type
// information and the htap source annotations:
//
//	//htap:hotpath          function: it and its same-package callees
//	                        must not allocate (see hotalloc)
//	//htap:coldpath         function: amortized or setup work reachable
//	                        from a hot path; traversal stops here
//	//htap:guardedby <mu>   struct field: accessible only while holding
//	                        <mu> — a sibling mutex field ("mu") or a
//	                        qualified field of another struct in the
//	                        package ("Engine.mu")
//	//htap:locked <mu>      function: caller must hold <mu> on entry;
//	                        the body is checked as if holding it and
//	                        call sites are checked for it
//	//htap:deterministic    function: result-order-sensitive merge or
//	                        assembly code; no map ranges, selects or
//	                        goroutine spawns (see detmerge)
//	//htap:api <reason>     declaration under internal/: kept exported
//	                        though no non-test file uses it, for the
//	                        reason given (TestInternalExportsAreUsed)
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's worth of inputs to an analyzer plus the
// Report sink for its findings.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic. The driver wires it to output
	// collection; analyzers must not retain the Diagnostic.
	Report func(Diagnostic)

	notes *Notes
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// MutexRef names a mutex a field is guarded by or a function assumes
// held: the named struct type owning the mutex field, and the field's
// name. An unqualified annotation ("mu") resolves Type to the enclosing
// struct; a qualified one ("Engine.mu") names another type in the same
// package.
type MutexRef struct {
	Type  *types.TypeName
	Field string
}

func (m MutexRef) String() string {
	if m.Type == nil {
		return m.Field
	}
	return m.Type.Name() + "." + m.Field
}

// Notes is the package's parsed htap annotation set, keyed by the
// annotated objects.
type Notes struct {
	// Hot and Cold hold //htap:hotpath and //htap:coldpath functions.
	Hot  map[*types.Func]bool
	Cold map[*types.Func]bool
	// Deterministic holds //htap:deterministic functions.
	Deterministic map[*types.Func]bool
	// Locked maps a //htap:locked function to the mutexes its callers
	// must hold.
	Locked map[*types.Func][]MutexRef
	// GuardedBy maps a //htap:guardedby struct field to its mutex.
	GuardedBy map[*types.Var]MutexRef
}

// Annotations lazily parses and caches the package's htap directives.
func (p *Pass) Annotations() *Notes {
	if p.notes == nil {
		p.notes = collectNotes(p)
	}
	return p.notes
}

// directive extracts the argument of an //htap:<name> line in the
// comment group, reporting whether the directive is present at all.
func directive(cg *ast.CommentGroup, name string) (arg string, ok bool) {
	if cg == nil {
		return "", false
	}
	prefix := "//htap:" + name
	for _, c := range cg.List {
		rest, found := strings.CutPrefix(c.Text, prefix)
		if !found {
			continue
		}
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue // longer directive name, e.g. hotpathx
		}
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// resolveMutex parses a mutex reference against the package scope:
// "mu" names a field of owner (the annotated struct, or the method
// receiver's type); "Engine.mu" names a field of package type Engine.
func resolveMutex(p *Pass, spec string, owner *types.TypeName, at token.Pos) (MutexRef, bool) {
	typeName, field := owner, spec
	if dot := strings.IndexByte(spec, '.'); dot >= 0 {
		tn, f := spec[:dot], spec[dot+1:]
		obj := p.Pkg.Scope().Lookup(tn)
		named, ok := obj.(*types.TypeName)
		if !ok {
			p.Reportf(at, "htap annotation references unknown type %q", tn)
			return MutexRef{}, false
		}
		typeName, field = named, f
	}
	if typeName == nil {
		p.Reportf(at, "htap annotation %q needs a qualified Type.field mutex outside a struct", spec)
		return MutexRef{}, false
	}
	st, ok := typeName.Type().Underlying().(*types.Struct)
	if !ok || fieldByName(st, field) == nil {
		p.Reportf(at, "htap annotation references unknown mutex field %s.%s", typeName.Name(), field)
		return MutexRef{}, false
	}
	return MutexRef{Type: typeName, Field: field}, true
}

func fieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// ReceiverType returns the named type a method is declared on, or nil
// for plain functions.
func ReceiverType(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

func collectNotes(p *Pass) *Notes {
	n := &Notes{
		Hot:           map[*types.Func]bool{},
		Cold:          map[*types.Func]bool{},
		Deterministic: map[*types.Func]bool{},
		Locked:        map[*types.Func][]MutexRef{},
		GuardedBy:     map[*types.Var]MutexRef{},
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := p.TypesInfo.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				if _, ok := directive(d.Doc, "hotpath"); ok {
					n.Hot[fn] = true
				}
				if _, ok := directive(d.Doc, "coldpath"); ok {
					n.Cold[fn] = true
				}
				if _, ok := directive(d.Doc, "deterministic"); ok {
					n.Deterministic[fn] = true
				}
				if arg, ok := directive(d.Doc, "locked"); ok {
					owner := ReceiverType(fn)
					for _, spec := range strings.Fields(arg) {
						if ref, ok := resolveMutex(p, spec, owner, d.Pos()); ok {
							n.Locked[fn] = append(n.Locked[fn], ref)
						}
					}
				}
			case *ast.GenDecl:
				collectFieldNotes(p, n, d)
			}
		}
	}
	return n
}

func collectFieldNotes(p *Pass, n *Notes, d *ast.GenDecl) {
	if d.Tok != token.TYPE {
		return
	}
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		owner, _ := p.TypesInfo.Defs[ts.Name].(*types.TypeName)
		if owner == nil {
			continue
		}
		for _, field := range st.Fields.List {
			arg, ok := directive(field.Doc, "guardedby")
			if !ok {
				arg, ok = directive(field.Comment, "guardedby")
			}
			if !ok {
				continue
			}
			ref, ok := resolveMutex(p, arg, owner, field.Pos())
			if !ok {
				continue
			}
			for _, name := range field.Names {
				if v, ok := p.TypesInfo.Defs[name].(*types.Var); ok {
					n.GuardedBy[v] = ref
				}
			}
		}
	}
}

// FuncFor resolves a call expression to the static *types.Func it
// invokes, or nil for dynamic calls (interface methods, function
// values, builtins and conversions).
func FuncFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				fn, _ := sel.Obj().(*types.Func)
				return fn
			}
			return nil // field call: dynamic
		}
		// Package-qualified call (pkg.Fn).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsTestFile reports whether the file a position belongs to is a _test.go
// file; analyzers skip those (tests synchronize their own way and may
// exercise deprecated surfaces on purpose).
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}
