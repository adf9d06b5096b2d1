package network

import "parallelspikesim/internal/engine"

// The names in this file outlive the lazy STDP schedule and the network's
// executor, which are gone: every network applies plasticity densely on
// the presenting goroutine. perfbench is their only non-test caller. The
// file is deleted once ROADMAP item 1 moves perfbench off it.

// PlasticityMode named an STDP schedule. Dense is the only one left.
//
// Deprecated: perfbench is the only non-test caller. This file is
// deleted once ROADMAP item 1 moves perfbench off it.
type PlasticityMode int

// LazyPlasticity named the removed lazy schedule. WithPlasticity ignores it.
//
// Deprecated: perfbench is the only non-test caller. This file is
// deleted once ROADMAP item 1 moves perfbench off it.
const LazyPlasticity PlasticityMode = 1

// WithPlasticity returns a nil Option, which New ignores: every network
// applies plasticity densely.
//
// Deprecated: perfbench is the only non-test caller. This file is
// deleted once ROADMAP item 1 moves perfbench off it.
func WithPlasticity(PlasticityMode) Option { return nil }

// WithExecutor returns a nil Option, which New ignores: every step runs on
// the presenting goroutine.
//
// Deprecated: perfbench is the only non-test caller. This file is
// deleted once ROADMAP item 1 moves perfbench off it.
func WithExecutor(engine.Executor) Option { return nil }
