//go:build !simcheck

package check

import "parallelspikesim/internal/fixed"

// Enabled reports whether the sanitizer is compiled in. It is false in
// default builds: every function below is an empty no-op the inliner
// erases, and `if check.Enabled { … }` blocks are removed as dead code, so
// instrumented hot paths pay nothing (see BenchmarkDisabledOverhead).
const Enabled = false

// Failf is a no-op without the simcheck build tag.
func Failf(format string, args ...any) {}

// Assert is a no-op without the simcheck build tag.
func Assert(cond bool, format string, args ...any) {}

// Finite is a no-op without the simcheck build tag.
func Finite(ctx string, v float64) {}

// FiniteSlice is a no-op without the simcheck build tag.
func FiniteSlice(ctx string, vs []float64) {}

// InRange is a no-op without the simcheck build tag.
func InRange(ctx string, v, lo, hi float64) {}

// Conductance is a no-op without the simcheck build tag.
func Conductance(ctx string, g float64, f fixed.Format, lo, hi float64) {}

// WeightUpdate is a no-op without the simcheck build tag.
func WeightUpdate(ctx string, oldG, newG float64, f fixed.Format, lo, hi float64) {}

// CounterAdvance is a no-op without the simcheck build tag.
func CounterAdvance(ctx string, prev, next int) {}
