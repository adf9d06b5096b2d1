package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// fixedPkgPath is the only package allowed to do raw arithmetic on
// fixed.Weight values. Variable so tests can retarget it at fixtures.
var fixedPkgPath = "parallelspikesim/internal/fixed"

// FixedRangeAnalyzer flags raw +, -, *, / arithmetic (and their compound
// assignment and ++/-- forms) on values of type fixed.Weight outside
// internal/fixed, and direct lane indexing of packed []fixed.Word code
// words outside internal/fixed.
//
// Weight is the on-grid quantized conductance (paper §III-C). Every
// mutation must pass through the sanctioned helpers (Format.AddSat,
// Format.SubSat, Format.QuantizeWeight), which saturate into the Qm.n range
// of eqs. 6–8 and apply the configured rounding option; a bare `w + dg`
// silently leaves the grid and bypasses saturation. Comparisons are fine,
// and an explicit float64(w) conversion is the sanctioned way to leave the
// quantized domain (e.g. for current accumulation or statistics).
//
// Word is a 64-bit carrier holding several packed Qm.n codes (DESIGN.md
// §14). `words[i]` selects a carrier word, not a synapse, and writing one
// clobbers every lane it holds — only the SWAR kernels in internal/fixed
// know the lane geometry. Slicing (words[lo:hi]) stays allowed so callers
// can hand whole rows to the kernels.
var FixedRangeAnalyzer = &Analyzer{
	Name: "fixedrange",
	Doc:  "flags raw arithmetic on fixed.Weight and direct indexing of packed []fixed.Word outside internal/fixed",
	Run:  runFixedRange,
}

// arithmeticOps are the flagged binary/assignment operators. Shifts and
// bitwise ops do not apply to a float-backed type; comparisons are allowed.
var arithmeticOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true, token.QUO_ASSIGN: true,
}

func runFixedRange(pass *Pass) error {
	if pass.Pkg.Path() == fixedPkgPath {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if arithmeticOps[n.Op] && (isWeight(pass.TypesInfo, n.X) || isWeight(pass.TypesInfo, n.Y)) {
					pass.Reportf(n.Pos(), "raw %s arithmetic on fixed.Weight bypasses saturation and rounding; use fixed.Format.AddSat/SubSat", n.Op)
				}
			case *ast.AssignStmt:
				if arithmeticOps[n.Tok] && len(n.Lhs) == 1 && isWeight(pass.TypesInfo, n.Lhs[0]) {
					pass.Reportf(n.Pos(), "raw %s on fixed.Weight bypasses saturation and rounding; use fixed.Format.AddSat/SubSat", n.Tok)
				}
			case *ast.IncDecStmt:
				if isWeight(pass.TypesInfo, n.X) {
					pass.Reportf(n.Pos(), "raw %s on fixed.Weight bypasses saturation and rounding; use fixed.Format.AddSat/SubSat", n.Tok)
				}
			case *ast.UnaryExpr:
				if n.Op == token.SUB && isWeight(pass.TypesInfo, n.X) {
					pass.Report(n.Pos(), "negating fixed.Weight leaves the unsigned Qm.n range; conductance is non-negative")
				}
			case *ast.IndexExpr:
				if isWordSequence(pass.TypesInfo, n.X) {
					pass.Report(n.Pos(), "indexing packed fixed.Word codes addresses a carrier word, not a synapse; use the fixed.Packing kernels (Get/Set/IncSat/DecSat/AccumulateRows)")
				}
			}
			return true
		})
	}
	return nil
}

// isWeight reports whether the expression's type is (or aliases) the
// defined type fixed.Weight.
func isWeight(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Weight" && objPkgPath(obj) == fixedPkgPath
}

// isWordSequence reports whether the expression's type is a slice or array
// of the defined type fixed.Word.
func isWordSequence(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	var elem types.Type
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice:
		elem = t.Elem()
	case *types.Array:
		elem = t.Elem()
	case *types.Pointer: // &[N]Word auto-indexes through the pointer
		arr, ok := t.Elem().Underlying().(*types.Array)
		if !ok {
			return false
		}
		elem = arr.Elem()
	default:
		return false
	}
	named, ok := elem.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Word" && objPkgPath(obj) == fixedPkgPath
}
