// Package repro is a from-scratch Go reproduction of "FPGA-Accelerated
// Simulation Technologies (FAST): Fast, Full-System, Cycle-Accurate
// Simulators" (Chiou et al., MICRO 2007).
//
// The library lives under internal/: the speculative functional model
// (internal/fm), the cycle-accurate timing model (internal/tm), the trace
// buffer coupling them (internal/trace), the FAST simulator proper
// (internal/core), the full-system substrate (internal/fullsys +
// internal/workload), the host platform models (internal/fpga,
// internal/hostlink), the comparison simulators (internal/baseline) and the
// evaluation harness (internal/experiments). See README.md, DESIGN.md and
// EXPERIMENTS.md.
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation:
//
//	make bench
package repro
