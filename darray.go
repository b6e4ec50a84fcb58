// Package darray is the public API of the DArray reproduction: a high
// performance distributed object array with a coherent cache, a
// lock-free data access path, associative-commutative "Operate"
// updates, distributed reader/writer locks, and the Pin optimization
// hint (Ding, Han, Chen — ICPP 2023).
//
// A program runs SPMD over a simulated cluster:
//
//	c := darray.NewCluster(darray.Config{Nodes: 4})
//	defer c.Close()
//	c.Run(func(n *darray.Node) {
//		arr := darray.New(n, 1<<20)
//		add := arr.RegisterOp(darray.OpAddU64)
//		ctx := n.NewCtx(0)
//		arr.Apply(ctx, add, 7, 1) // combines locally, merges at home
//		c.Barrier(ctx)
//		_ = arr.Get(ctx, 7)
//	})
//
// The full design — architecture, the extended four-state coherence
// protocol, and the virtual-time benchmarking methodology — is described
// in DESIGN.md; the per-figure reproduction record lives in
// EXPERIMENTS.md.
package darray

import (
	"darray/internal/cluster"
	"darray/internal/core"
)

// Re-exported types: the cluster harness and the array API.
type (
	// Config describes a simulated cluster (node count, runtime threads,
	// cache geometry, optional virtual-time model).
	Config = cluster.Config
	// Cluster is a set of simulated nodes connected by the RDMA fabric.
	Cluster = cluster.Cluster
	// Node is one simulated machine.
	Node = cluster.Node
	// Ctx is an application-thread context (clock, RNG, statistics).
	Ctx = cluster.Ctx
	// Array is a distributed array of 8-byte objects.
	Array = core.Array
	// F64 is a float64-typed view of an Array.
	F64 = core.F64
	// I64 is an int64-typed view of an Array.
	I64 = core.I64
	// Op is an associative-commutative operator with identity.
	Op = core.Op
	// OpID names a registered operator.
	OpID = core.OpID
	// Options customizes array construction (custom partitioning).
	Options = core.Options
	// Pin is an explicitly held chunk reference (fast accessors).
	Pin = core.Pin
)

// Builtin operators for the Operate interface.
var (
	OpAddU64 = core.OpAddU64
	OpMinU64 = core.OpMinU64
	OpMaxU64 = core.OpMaxU64
	OpAddF64 = core.OpAddF64
	OpMinF64 = core.OpMinF64
	OpMaxF64 = core.OpMaxF64
)

// NewCluster builds and starts a simulated cluster.
func NewCluster(cfg Config) *Cluster { return cluster.New(cfg) }

// New collectively creates a distributed array of n 8-byte elements
// (every node must call it in the same order — SPMD).
func New(node *Node, n int64, opts ...Options) *Array {
	return core.New(node, n, opts...)
}
