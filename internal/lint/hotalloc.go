package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAllocDirective marks a function whose body must not allocate on the
// heap. The contract (DESIGN.md §15) is per-function and warm-path: the
// annotated body itself may not contain heap constructs; callees are
// covered by the escape-analysis gate (scripts/check-allocs.sh) and the
// testing.AllocsPerRun gates, not by this AST pass.
//
//	//psslint:noalloc
//	func (m *Matrix) AccumulateSpikes(...) { ... }
const NoAllocDirective = "psslint:noalloc"

// HotAllocAnalyzer is the fast, source-level half of the zero-alloc
// ratchet: inside every //psslint:noalloc function it rejects the obvious
// heap constructs —
//
//   - make / new
//   - slice, map and &T{} composite literals (plain value literals are fine)
//   - function literals (closure + captured-variable allocation)
//   - go statements (goroutine stacks are allocations, and spawning belongs
//     outside the kernel anyway)
//   - append rooted at a locally allocated slice (appends into caller-owned
//     buffers — parameters, receiver fields, or reslices of them — are the
//     sanctioned pattern and stay allowed)
//   - fmt.* calls (interface packing plus internal buffering)
//   - explicit conversions to interface types
//   - string concatenation
//
// The compiler's escape analysis is the ground truth (an escaping &T{} vs a
// stack one is its call); this pass exists so the common regressions fail
// in the editor loop, with a named construct, before anyone runs the
// slower -gcflags=-m gate.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "rejects heap-allocating constructs (make, closures, interface conversions, fmt, locally rooted append) inside //psslint:noalloc functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasNoAllocDirective(fn.Doc) {
				continue
			}
			checkNoAllocFunc(pass, fn)
		}
	}
	return nil
}

// hasNoAllocDirective reports whether the doc comment carries
// //psslint:noalloc (directive comments have no space after //, so they
// survive gofmt and do not render in godoc).
func hasNoAllocDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), NoAllocDirective) {
			return true
		}
	}
	return false
}

func checkNoAllocFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	roots := callerOwnedRoots(info, fn)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNoAllocCall(pass, fn, n, roots)
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "%s: slice literal allocates; reuse a caller-owned buffer", noAllocWho(fn))
			case *types.Map:
				pass.Reportf(n.Pos(), "%s: map literal allocates; hoist it out of the hot path", noAllocWho(fn))
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return true
			}
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				pass.Reportf(n.Pos(), "%s: &T{} composite literal is a heap candidate; take the address of a caller-owned value instead", noAllocWho(fn))
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "%s: function literal allocates a closure; hoist it to a named function or method", noAllocWho(fn))
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s: go statement allocates a goroutine stack; spawn outside the kernel", noAllocWho(fn))
		case *ast.BinaryExpr:
			if n.Op != token.ADD || !isStringType(info, n.X) {
				return true
			}
			if tv, ok := info.Types[n]; ok && tv.Value != nil {
				return true // constant-folded at compile time
			}
			pass.Reportf(n.Pos(), "%s: string concatenation allocates; precompute the string outside the hot path", noAllocWho(fn))
		}
		return true
	})
}

// isStringType reports whether e has (an alias of) a string type.
func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func checkNoAllocCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, roots map[types.Object]bool) {
	info := pass.TypesInfo
	switch callee := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[callee].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				pass.Reportf(call.Pos(), "%s: %s allocates; hoist the allocation to setup or a pooled scratch", noAllocWho(fn), b.Name())
				return
			case "append":
				if len(call.Args) > 0 && !rootedAtCallerOwned(info, call.Args[0], roots) {
					pass.Reportf(call.Pos(), "%s: append to a locally allocated slice grows on the heap; append into a caller-owned buffer", noAllocWho(fn))
				}
				return
			}
		}
	case *ast.SelectorExpr:
		if obj := info.Uses[callee.Sel]; obj != nil && objPkgPath(obj) == "fmt" {
			pass.Reportf(call.Pos(), "%s: fmt.%s allocates (interface packing, internal buffers); keep formatting off the hot path", noAllocWho(fn), obj.Name())
			return
		}
	}
	// Explicit conversion to an interface type: T(x) where T is an
	// interface boxes x on the heap (unless escape analysis saves it — the
	// gate's call, but the construct has no place in a noalloc body).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			if atv, ok := info.Types[call.Args[0]]; ok && atv.Type != nil {
				if _, alreadyIface := atv.Type.Underlying().(*types.Interface); !alreadyIface && !atv.IsNil() {
					pass.Reportf(call.Pos(), "%s: conversion to interface boxes the value on the heap", noAllocWho(fn))
				}
			}
		}
	}
}

// callerOwnedRoots collects the objects an append may legitimately be
// rooted at: parameters, the receiver, named results, and (one fixpoint)
// locals derived from them (`live := s.touched[:0]`).
func callerOwnedRoots(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	roots := make(map[types.Object]bool)
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				roots[obj] = true
			}
		}
	}
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			addField(f)
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			addField(f)
		}
	}
	if fn.Type.Results != nil {
		for _, f := range fn.Type.Results.List {
			addField(f)
		}
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if !rootedAtCallerOwned(info, as.Rhs[i], roots) {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !roots[obj] {
					roots[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return roots
}

// rootedAtCallerOwned reports whether e's base — after stripping selectors,
// indexing, slicing and dereferences — is a caller-owned object. An
// append(...) rooted at a caller-owned slice also qualifies (the
// self-append idiom `buf = append(buf, x)`).
func rootedAtCallerOwned(info *types.Info, e ast.Expr, roots map[types.Object]bool) bool {
	base := rcuRootExpr(e)
	if call, ok := base.(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				return rootedAtCallerOwned(info, call.Args[0], roots)
			}
		}
		return false
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj != nil && roots[obj]
}

// noAllocWho names the annotated function for diagnostics.
func noAllocWho(fn *ast.FuncDecl) string {
	return "//psslint:noalloc " + fn.Name.Name
}
