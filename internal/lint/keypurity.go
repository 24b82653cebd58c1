package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"
)

// analyzeKeyPurity is rule K001: hygiene of the structs whose JSON
// marshaling feeds content-addressed store keys.
//
//   - Every field must carry an explicit json tag. An untagged field
//     marshals under its Go name implicitly, so a rename silently
//     changes every store key; worse, nobody ever *decided* the field
//     belongs in the key. `json:"-"` is the explicit way to keep a
//     field out: a knob that changes wall-clock time but no artifact
//     must not perturb keys.
//   - Unexported fields are forbidden: encoding/json skips them
//     silently, so behavior-relevant state would be invisible to the
//     key — two different computations aliasing one artifact.
//   - A `json:"-"` field must not be read inside an artifact-content
//     producer (a function that calls store.Marshal / store.Key /
//     json.Marshal): what is excluded from the key must not leak into
//     the bytes the key addresses.
var analyzeKeyPurity = &Analyzer{
	Rule: RuleKeyPurity,
	Doc:  "store-key struct fields must be explicitly tagged and key-excluded fields must not reach artifact bytes",
	Run:  runKeyPurity,
}

func runKeyPurity(p *Pass) {
	pkg := p.Pkg

	// Part A: tag discipline on key structs declared in this package.
	keyStructs := make(map[*types.Named]bool)
	for _, qname := range p.Cfg.KeyStructs {
		dot := strings.LastIndex(qname, ".")
		if dot < 0 {
			continue
		}
		path, name := qname[:dot], qname[dot+1:]
		if path != pkg.Path {
			// Resolve through imports so part B works on uses of key
			// structs from other packages.
			if imported := findImported(pkg.Types, path); imported != nil {
				if obj, ok := imported.Scope().Lookup(name).(*types.TypeName); ok {
					if n, ok := obj.Type().(*types.Named); ok {
						keyStructs[n] = true
					}
				}
			}
			continue
		}
		obj, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		n, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		keyStructs[n] = true
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				p.Report(f.Pos(), "key struct %s has unexported field %s: encoding/json skips it silently, so it is invisible to store keys while still influencing behavior", name, f.Name())
				continue
			}
			tag := reflect.StructTag(st.Tag(i))
			if _, ok := tag.Lookup("json"); !ok {
				p.Report(f.Pos(), "key struct %s field %s has no explicit json tag: store keys hash this struct's JSON, so membership in the key must be a decision (`json:%q` to include, `json:\"-\"` to exclude)", name, f.Name(), f.Name())
			}
		}
	}

	// Part B: `json:"-"` fields of key structs must not be read inside
	// artifact-content producers.
	if len(keyStructs) == 0 {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !callsAny(pkg.Info, fd.Body, p.Cfg.MarshalFuncs) {
				continue
			}
			checkDashReads(p, keyStructs, fd)
		}
	}
}

// callsAny reports whether body contains a call to any of the listed
// function IDs.
func callsAny(info *types.Info, body ast.Node, ids []string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if inList(calleeID(info, call), ids) {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkDashReads flags selector reads of `json:"-"` fields of key
// structs inside fd.
func checkDashReads(p *Pass, keyStructs map[*types.Named]bool, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		recv := selection.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || !keyStructs[named] {
			return true
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return true
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) != field {
				continue
			}
			tag := reflect.StructTag(st.Tag(i))
			if v, _ := tag.Lookup("json"); v == "-" || strings.HasPrefix(v, "-,") {
				p.Report(sel.Pos(), "%s reads key-excluded field %s.%s inside an artifact-content producer: a `json:\"-\"` field must never reach the bytes its key addresses", fd.Name.Name, named.Obj().Name(), field.Name())
			}
		}
		return true
	})
}

// findImported returns the imported *types.Package with the given path
// reachable from pkg (direct imports only).
func findImported(pkg *types.Package, path string) *types.Package {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}
