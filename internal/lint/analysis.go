// Package lint is psslint's analysis framework plus the project's custom
// analyzers. The framework is a self-contained, offline re-implementation of
// the golang.org/x/tools/go/analysis surface this project needs (Analyzer,
// Pass, Diagnostic, a package loader and a testdata-driven test harness),
// built only on the standard library's go/ast, go/types and go/importer —
// the build environment has no module proxy access, so the real x/tools
// module cannot be vendored in. The API mirrors go/analysis closely enough
// that each analyzer's Run function would port to the upstream multichecker
// by changing only the Pass type's import path.
//
// The six analyzers encode invariants the compiler cannot see:
//
//   - fixedrange: raw +, -, *, / arithmetic on fixed.Weight values outside
//     internal/fixed. Raw arithmetic bypasses saturation and the paper's
//     rounding options (eqs. 6–8); the sanctioned path is fixed.Format's
//     AddSat/SubSat/QuantizeWeight.
//   - detrand: determinism hazards in the simulation hot paths
//     (internal/{core,network,synapse,neuron,encode}): unseeded math/rand,
//     time.Now, and map-range loops feeding numeric accumulators. Any of
//     these breaks bit-identical checkpoint resume.
//   - ioerr: silently dropped errors from netio calls and from Close on
//     writable files. A checkpoint whose write or close error vanishes is a
//     checkpoint that may not exist after a crash.
//   - rcuimmut: read-side discipline for the RCU-style hot-reload scheme.
//     A pointer loaded from atomic.Pointer is a published snapshot shared
//     with concurrent readers: no writes through it, no aliasing it into
//     mutable fields, no re-publishing it, and (in registered packages)
//     Store only inside the sanctioned validate→fence→swap function.
//   - golifecycle: every goroutine must be tied to a lifecycle — a
//     WaitGroup, a channel drain, or a cancellation receive — or carry a
//     //psslint:detached justification; goroutine sends that can block
//     forever once the receiver cancels are flagged too.
//   - hotalloc: the source-level half of the zero-alloc ratchet — obvious
//     heap constructs inside //psslint:noalloc functions. The compiler
//     escape-analysis gate (EscapeCheck, scripts/check-allocs.sh) and
//     testing.AllocsPerRun tests are the runtime-truth halves.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and driver flags.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report/Reportf. An error aborts the whole psslint run (reserve
	// it for internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer.Run, mirroring
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  msg,
	})
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Run applies each analyzer to each package and returns every diagnostic,
// sorted by position. Analyzer errors (internal failures) abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			diags = append(diags, pass.diagnostics...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FixedRangeAnalyzer, DetRandAnalyzer, IOErrAnalyzer,
		RCUImmutAnalyzer, GoLifecycleAnalyzer, HotAllocAnalyzer,
	}
}

// objPkgPath returns the import path of the package an object belongs to
// ("" for builtins and package-less objects).
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// calleeObject resolves a call expression to the used function/type object,
// unwrapping parens. Returns nil for calls it cannot resolve (e.g. calling a
// function-typed expression).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
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
