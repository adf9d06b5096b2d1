package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetRandHotPackages are the import paths whose code runs inside the
// per-step simulation loop and therefore must be strictly deterministic:
// bit-identical checkpoint resume replays these paths with only the
// counter-based internal/rng as a randomness source. Variable so the
// analyzer tests can add fixture packages.
var DetRandHotPackages = map[string]bool{
	"parallelspikesim/internal/network": true,
	"parallelspikesim/internal/synapse": true,
	"parallelspikesim/internal/neuron":  true,
	"parallelspikesim/internal/encode":  true,
}

// DetRandAnalyzer flags determinism hazards in the simulation hot paths:
//
//   - any use of math/rand or math/rand/v2: the package-level functions
//     draw from a process-global (and in v1, lazily seeded) source, and
//     even a locally seeded *rand.Rand carries hidden state that a
//     checkpoint cannot capture. Hot-path randomness must go through the
//     counter-based internal/rng, whose draws are pure functions of
//     (seed, tag, step, indices).
//   - time.Now (and time.Since/time.Until, which call it): wall-clock
//     reads make control flow depend on scheduling. Timing belongs in the
//     obs layer (obs.Timer), which is nil-safe and outside the hot
//     packages.
//   - range-over-map loops feeding numeric accumulators (+=, -=, *=, /=
//     inside the loop body): Go randomizes map iteration order, so a
//     float accumulation over a map produces run-dependent rounding.
//     Iterate a sorted slice instead.
var DetRandAnalyzer = &Analyzer{
	Name: "detrand",
	Doc:  "flags unseeded math/rand, time.Now and map-range numeric accumulation in the deterministic hot-path packages",
	Run:  runDetRand,
}

func runDetRand(pass *Pass) error {
	if !DetRandHotPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "%s in a deterministic hot-path package; use the counter-based internal/rng", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if obj := calleeObject(pass.TypesInfo, n); obj != nil && objPkgPath(obj) == "time" {
					switch obj.Name() {
					case "Now", "Since", "Until":
						pass.Reportf(n.Pos(), "time.%s in a deterministic hot-path package; route timing through obs.Timer", obj.Name())
					}
				}
			case *ast.RangeStmt:
				if isMapType(pass.TypesInfo, n.X) {
					if bad := findNumericAccumulation(n.Body); bad != nil {
						pass.Report(bad.Pos(), "numeric accumulation inside a map-range loop is iteration-order dependent; iterate a sorted slice")
					}
				}
			}
			return true
		})
	}
	return nil
}

// isMapType reports whether the ranged-over expression has map type.
func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// findNumericAccumulation returns the first compound numeric assignment
// (x += …, x -= …, x *= …, x /= …) in the loop body, or nil. Nested
// map-range loops report at their own visit.
func findNumericAccumulation(body *ast.BlockStmt) (found ast.Stmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok && arithmeticOps[as.Tok] {
			found = as
			return false
		}
		return true
	})
	return found
}
