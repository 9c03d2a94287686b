package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// SnapshotMut keeps schedsrv's congestion feedback one-directional.
// Scheduler.Snapshot hands out Feedback values as point-in-time facts:
// the adaptive controllers and the decision trace both read the same
// snapshot, and the trace's usefulness rests on the snapshot being
// exactly what the decision saw. A consumer that writes a Feedback
// field — "adjusting" Queued before the controller reads it, scaling
// Utilization for a what-if — silently rewrites history for every later
// reader of the same value and desynchronizes the trace from the
// decisions.
//
// The analyzer flags any assignment (or ++/--, or taking a writable
// reference via &f.Field) through a field of a schedsrv Feedback value
// outside the defining package, when the Feedback is shared storage: a
// *Feedback pointer, a Feedback field nested in another struct, an
// element of a slice or map, or a package-level variable. A
// function-local variable of the value type is a private copy — Go's
// value semantics guarantee it aliases nothing — so mutating one is the
// endorsed way to derive a variant (multiclient's server.feedback folds
// its cumulative counters into exactly such a copy). schedsrv itself may
// build and update the struct; everyone else copies first.
var SnapshotMut = &Analyzer{
	Name: "snapshotmut",
	Doc: "schedsrv Feedback snapshots are read-only outside schedsrv: consumers must not " +
		"assign through Feedback fields; copy the struct to derive a variant",
	Run: runSnapshotMut,
}

var schedsrvPackagePattern = regexp.MustCompile(`(^|/)internal/schedsrv(/|$)`)

func runSnapshotMut(pass *Pass) error {
	if schedsrvPackagePattern.MatchString(pass.PkgPath) {
		return nil // the defining package owns the struct
	}
	for _, as := range pass.Insp.Assigns {
		for _, lhs := range as.Lhs {
			if sel := feedbackFieldSel(pass, lhs); sel != nil {
				pass.Reportf(sel.Sel.Pos(),
					"assignment to Feedback field %s outside schedsrv: snapshots are point-in-time "+
						"facts shared with the decision trace; copy the struct before deriving a "+
						"variant", sel.Sel.Name)
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IncDecStmt:
				if sel := feedbackFieldSel(pass, n.X); sel != nil {
					pass.Reportf(sel.Sel.Pos(),
						"increment of Feedback field %s outside schedsrv: snapshots are point-in-time "+
							"facts shared with the decision trace; copy the struct before deriving a "+
							"variant", sel.Sel.Name)
				}
			case *ast.UnaryExpr:
				// &f.Field escapes a writable pointer into the snapshot.
				if n.Op.String() != "&" {
					return true
				}
				if sel := feedbackFieldSel(pass, n.X); sel != nil {
					pass.Reportf(sel.Sel.Pos(),
						"taking the address of Feedback field %s outside schedsrv leaks a writable "+
							"reference into the snapshot; copy the struct and point at the copy", sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}

// feedbackFieldSel reports whether expr is a selector (after stripping
// parens and derefs) whose base is a schedsrv Feedback value, returning
// the selector.
func feedbackFieldSel(pass *Pass, expr ast.Expr) *ast.SelectorExpr {
	e := unparen(expr)
	if star, ok := e.(*ast.StarExpr); ok {
		e = unparen(star.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	// Only field selections count; method values are not writes.
	if _, ok := pass.TypesInfo.Selections[sel]; ok {
		if pass.TypesInfo.Selections[sel].Kind() != types.FieldVal {
			return nil
		}
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Feedback" || named.Obj().Pkg() == nil {
		return nil
	}
	if !schedsrvPackagePattern.MatchString(named.Obj().Pkg().Path()) {
		return nil
	}
	if localValueCopy(pass, sel.X) {
		return nil // a private by-value copy: the endorsed variant pattern
	}
	return sel
}

// localValueCopy reports whether expr is a function-local variable of
// the (non-pointer) value type: a private copy that cannot alias the
// snapshot other readers see.
func localValueCopy(pass *Pass, expr ast.Expr) bool {
	id, ok := unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if _, isPtr := v.Type().(*types.Pointer); isPtr {
		return false
	}
	// A package-level Feedback variable is shared storage even though it
	// is a value: every reader in the package sees the mutation.
	return v.Parent() != pass.Pkg.Scope()
}
