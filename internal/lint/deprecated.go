package lint

import (
	"go/ast"
	"go/types"
)

// Import paths of the packages whose deprecated constructors the analyzer
// guards. Declared as variables so the analyzer tests can point them at
// fixture packages.
var (
	enginePkgPath  = "parallelspikesim/internal/engine"
	learnPkgPath   = "parallelspikesim/internal/learn"
	synapsePkgPath = "parallelspikesim/internal/synapse"
)

// DeprecatedAnalyzer flags qualified uses of the constructors that the
// functional-options API replaced, and of the accessors the sealed Matrix
// storage API replaced:
//
//	engine.NewPool(...)   -> engine.New(n) / engine.New(engine.Auto)
//	engine.Sequential{}   -> engine.New(1)
//	learn.NewTrainer(...) -> learn.New(net, opts) with opts.NumClasses set
//	(*synapse.Matrix).Row -> At / AccumulateSpikesRange / ForEachRow
//
// Unlike the grep this replaces, the check resolves each use through the
// type checker, so renamed imports, line breaks, or look-alike identifiers
// in other packages neither fool nor false-positive it. Uses inside the
// engine/learn packages (the wrappers themselves) are exempt; synapse has
// no exemption anymore — Matrix.Row was removed after its PR 7 grace
// period, and any reintroduction is flagged even inside its own package.
var DeprecatedAnalyzer = &Analyzer{
	Name: "deprecated",
	Doc:  "flags calls to engine.NewPool, engine.Sequential composite literals and positional learn.NewTrainer; use engine.New / learn.New instead",
	Run:  runDeprecated,
}

func runDeprecated(pass *Pass) error {
	self := pass.Pkg.Path()
	if self == enginePkgPath || self == learnPkgPath {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				obj := calleeObject(pass.TypesInfo, n)
				switch {
				case isPkgFunc(obj, enginePkgPath, "NewPool"):
					pass.Report(n.Pos(), "engine.NewPool is deprecated; use engine.New(n) or engine.New(engine.Auto)")
				case isPkgFunc(obj, learnPkgPath, "NewTrainer"):
					pass.Report(n.Pos(), "learn.NewTrainer is deprecated; use learn.New with Options.NumClasses")
				case isMethodOf(obj, synapsePkgPath, "Matrix", "Row"):
					pass.Report(n.Pos(), "synapse.Matrix.Row was removed with the sealed storage API (PR 7 grace period ended); use At, AccumulateSpikesRange or ForEachRow")
				}
			case *ast.CompositeLit:
				if tn := namedTypeOf(pass.TypesInfo, n); tn != nil &&
					objPkgPath(tn) == enginePkgPath && tn.Name() == "Sequential" {
					pass.Report(n.Pos(), "engine.Sequential{} is deprecated; use engine.New(1)")
				}
			}
			return true
		})
	}
	return nil
}

// isPkgFunc reports whether obj is the function `name` from package pkgPath.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Name() == name && objPkgPath(fn) == pkgPath
}

// isMethodOf reports whether obj is the method `name` on the defined type
// `recv` (value or pointer receiver) from package pkgPath.
func isMethodOf(obj types.Object, pkgPath, recv, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name || objPkgPath(fn) != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == recv
}

// namedTypeOf resolves a composite literal's type to its defined type's
// *types.TypeName, or nil for anonymous/slice/map literals.
func namedTypeOf(info *types.Info, lit *ast.CompositeLit) *types.TypeName {
	tv, ok := info.Types[lit]
	if !ok {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}
