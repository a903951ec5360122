// The whole-program view DL007 reads. Package passes see one target at
// a time; DL007 asks a question about the whole program — does any
// non-test code reference this export? — so Run first folds every
// linted package and the reference set into one index of uses and of
// the interfaces the program satisfies implicitly.
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
)

// LoadRefs type-checks the reference set DL007 counts uses in: every
// non-test package of each module in modules, given as directories
// relative to the root of the module that contains dir. DefaultConfig's
// RefModules names the main module and perfbench, which is its own
// module and reaches the framework only through exported API.
func LoadRefs(dir string, modules []string) ([]*Package, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("detlint: go env GOMOD: %v", err)
	}
	root := filepath.Dir(strings.TrimSpace(string(out)))
	var refs []*Package
	for _, m := range modules {
		pkgs, err := Load(filepath.Join(root, m), "./...")
		if err != nil {
			return nil, err
		}
		refs = append(refs, pkgs...)
	}
	return refs, nil
}

// program indexes the package-level objects non-test code references
// and the interfaces it uses.
type program struct {
	used map[string]bool
	// ifaces maps a method name to the method sets, name → signature,
	// of every interface that declares it.
	ifaces map[string][]map[string]string
}

// objKey names a package-level object or a method by import path, as
// "path.Name" or "path.Type.Method", so the same object loaded from
// source and from export data shares one key. Fields, locals and
// interface methods have no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	name := obj.Name()
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Origin().Type().(*types.Signature).Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil || types.IsInterface(named) {
				return ""
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + name
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + name
}

// sigString renders a signature with full import paths, so signatures
// from different loads of one package compare equal.
func sigString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Path() })
}

// selfSpans maps each package-level declaration's key to the source
// ranges that belong to the object itself: a function's or method's
// declaration, a type's spec and its methods, a constant's or
// variable's spec. A reference from inside them (recursion, a receiver,
// a method building its own type) is not a use.
func selfSpans(pkg *Package) map[string][][2]token.Pos {
	spans := map[string][][2]token.Pos{}
	add := func(id *ast.Ident, n ast.Node) {
		if k := objKey(pkg.Info.Defs[id]); k != "" {
			spans[k] = append(spans[k], [2]token.Pos{n.Pos(), n.End()})
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name, d)
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if named := namedOf(pkg.Info.TypeOf(d.Recv.List[0].Type)); named != nil {
						if k := objKey(named.Obj()); k != "" {
							spans[k] = append(spans[k], [2]token.Pos{d.Pos(), d.End()})
						}
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s)
						}
					}
				}
			}
		}
	}
	return spans
}

// newProgram indexes pkgs: their non-test uses, and every interface
// their code mentions, plus the ones fmt and errors consult at run time
// (String, Unwrap).
func newProgram(pkgs []*Package) *program {
	prog := &program{used: map[string]bool{}, ifaces: map[string][]map[string]string{}}
	seenIface := map[string]bool{}
	addIface := func(it *types.Interface) {
		key := sigString(it)
		if it.NumMethods() == 0 || seenIface[key] {
			return
		}
		seenIface[key] = true
		ms := map[string]string{}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			ms[m.Name()] = sigString(m.Type())
		}
		for name := range ms {
			prog.ifaces[name] = append(prog.ifaces[name], ms)
		}
	}
	// walk finds the interfaces reachable from a type the code mentions,
	// through signatures too: calling sort.Sort uses sort.Interface.
	seenType := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seenType[t] {
			return
		}
		seenType[t] = true
		switch x := t.(type) {
		case *types.Named:
			walk(x.Underlying())
		case *types.Alias:
			walk(types.Unalias(x))
		case *types.Interface:
			addIface(x)
		case *types.Pointer:
			walk(x.Elem())
		case *types.Slice:
			walk(x.Elem())
		case *types.Array:
			walk(x.Elem())
		case *types.Map:
			walk(x.Key())
			walk(x.Elem())
		case *types.Chan:
			walk(x.Elem())
		case *types.Signature:
			for i := 0; i < x.Params().Len(); i++ {
				walk(x.Params().At(i).Type())
			}
			for i := 0; i < x.Results().Len(); i++ {
				walk(x.Results().At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				walk(x.Field(i).Type())
			}
		}
	}
	walk(types.Universe.Lookup("error").Type())
	prog.ifaces["String"] = append(prog.ifaces["String"], map[string]string{"String": "func() string"})
	prog.ifaces["Unwrap"] = append(prog.ifaces["Unwrap"], map[string]string{"Unwrap": "func() error"})
	for _, pkg := range pkgs {
		self := selfSpans(pkg)
		for id, obj := range pkg.Info.Uses {
			k := objKey(obj)
			if k == "" || prog.used[k] {
				continue
			}
			inside := false
			if obj.Pkg().Path() == pkg.ImportPath {
				for _, s := range self[k] {
					if id.Pos() >= s[0] && id.Pos() < s[1] {
						inside = true
						break
					}
				}
			}
			if !inside {
				prog.used[k] = true
			}
		}
		for _, tv := range pkg.Info.Types {
			walk(tv.Type)
		}
	}
	return prog
}
