// Package parallelspikesim is a pure-Go reproduction of "Fast and
// Low-Precision Learning in GPU-Accelerated Spiking Neural Network"
// (She, Long, Mukhopadhyay — DATE 2019): a parallel SNN simulator with
// unsupervised stochastic-STDP learning, low-precision (down to 2-bit)
// synapses with selectable rounding, and input-frequency control for fast
// learning.
//
// The root package carries the per-table/figure benchmarks (bench_test.go);
// the implementation lives under internal/ — see README.md for the map.
// A run starts from internal/config: config.Model.Resolve gives the network
// configuration and frequency control that network.New and learn.New (or
// learn.Run) take.
package parallelspikesim
