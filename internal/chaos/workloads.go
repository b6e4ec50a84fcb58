package chaos

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/engine"
	"darray/internal/graph"
	"darray/internal/kvs"
)

// The chaos workloads. Each is built so the observable result is a pure
// function of (threads, seed): concurrent mutations are either disjoint
// or commutative, and floating-point results are quantized far above
// combine-order noise, so a faulted run must fingerprint identically to
// a fault-free one.

// fnv64a over 8-byte words.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// mix64 is splitmix64's output stage: deterministic value material.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Microbench exercises the raw array protocol: striped Set/Get over the
// whole index space, commutative Operate traffic, and locked
// read-modify-writes contending across nodes. words is the array length;
// every thread issues opsPerThread Apply operations.
func Microbench(words int64, opsPerThread int) Workload {
	return Workload{
		Name: "microbench",
		Run: func(c *cluster.Cluster, threads int, seed int64) (uint64, []*core.Array) {
			var fp uint64
			var arrays []*core.Array
			c.Run(func(n *cluster.Node) {
				ctx0 := n.NewCtx(0)
				a := core.New(n, words)
				add := a.RegisterOp(core.OpAddU64)
				if n.ID() == 0 {
					arrays = []*core.Array{a}
				}
				c.Barrier(ctx0)

				// Owners seed their partitions with derived values.
				lo, hi := a.LocalRange()
				for i := lo; i < hi; i++ {
					a.Set(ctx0, i, mix64(uint64(i)^uint64(seed)))
				}
				c.Barrier(ctx0)

				// Commutative adds striped across every node's partition:
				// order never matters, so loss-hiding retransmission is the
				// only thing standing between this and a wrong sum.
				n.RunThreads(threads, func(ctx *cluster.Ctx) {
					stride := int64(c.Nodes() * threads)
					start := int64(n.ID()*threads + ctx.TID)
					for k := int64(0); k < int64(opsPerThread); k++ {
						i := (start + k*stride) % words
						a.Apply(ctx, add, i, mix64(uint64(k)+uint64(seed)*31))
					}
				})
				c.Barrier(ctx0)

				// Locked read-modify-writes on eight elements spread across
				// the homes: every thread of every node contends, additions
				// commute, the final values are exact.
				n.RunThreads(threads, func(ctx *cluster.Ctx) {
					for k := int64(0); k < 8; k++ {
						i := k * words / 8
						a.WLock(ctx, i)
						a.Set(ctx, i, a.Get(ctx, i)+uint64(n.ID()*threads+ctx.TID+1))
						a.Unlock(ctx, i)
					}
				})
				c.Barrier(ctx0)

				if n.ID() == 0 {
					h := fnvOffset
					for i := int64(0); i < words; i++ {
						h = fnvMix(h, a.Get(ctx0, i))
					}
					fp = h
				}
				c.Barrier(ctx0)
			})
			return fp, arrays
		},
	}
}

// HotKey hammers a few hot chunks with interleaved reads and
// commutative adds from every thread of every node — the traffic
// pattern the function-shipping path targets. Reads during the
// contention phase force Operated collapses on the cached path (and
// sharer invalidations on the shipped path) but their values are
// discarded; only post-barrier state enters the fingerprint. Under
// commutative adds that state is exact, so the full-scan fingerprint
// from node 0 must be bit-identical in every shipping mode, faulted or
// not. A final ApplyRange over the hot region drives the batched
// ship-op variant through the same faulty fabric.
func HotKey(words int64, opsPerThread int) Workload {
	return Workload{
		Name: "hot-key",
		Run: func(c *cluster.Cluster, threads int, seed int64) (uint64, []*core.Array) {
			var fp uint64
			var arrays []*core.Array
			c.Run(func(n *cluster.Node) {
				ctx0 := n.NewCtx(0)
				a := core.New(n, words)
				add := a.RegisterOp(core.OpAddU64)
				if n.ID() == 0 {
					arrays = []*core.Array{a}
				}
				c.Barrier(ctx0)

				// Owners seed their partitions with derived values.
				lo, hi := a.LocalRange()
				for i := lo; i < hi; i++ {
					a.Set(ctx0, i, mix64(uint64(i)^uint64(seed)))
				}
				c.Barrier(ctx0)

				// Hot mix: 7/8 of the traffic lands on the first sixteenth
				// of the array, every fourth op re-reads the element it is
				// about to bump (a read-modify-write), operands derive only
				// from (seed, worker, k).
				hot := words / 16
				if hot < 1 {
					hot = 1
				}
				n.RunThreads(threads, func(ctx *cluster.Ctx) {
					w := int64(n.ID()*threads + ctx.TID)
					rng := rand.New(rand.NewSource(seed ^ (w+1)*0x9e3779b9))
					for k := 0; k < opsPerThread; k++ {
						i := rng.Int63n(hot)
						if rng.Intn(8) == 0 {
							i = rng.Int63n(words)
						}
						if rng.Intn(4) == 0 {
							_ = a.Get(ctx, i) // discarded: state churn only
						}
						a.Apply(ctx, add, i, mix64(uint64(k)+uint64(w)*1315423911+uint64(seed)))
					}
				})
				c.Barrier(ctx0)

				// Batched variant: every node ApplyRanges the hot region
				// (commutative, so concurrent ranges still commute).
				vals := make([]uint64, hot)
				for i := range vals {
					vals[i] = mix64(uint64(i) + uint64(n.ID())*2654435761 + uint64(seed)*13)
				}
				a.ApplyRange(ctx0, add, 0, vals)
				c.Barrier(ctx0)

				if n.ID() == 0 {
					h := fnvOffset
					for i := int64(0); i < words; i++ {
						h = fnvMix(h, a.Get(ctx0, i))
					}
					fp = h
				}
				c.Barrier(ctx0)
			})
			return fp, arrays
		},
	}
}

// BulkRange streams multi-chunk GetRange/SetRange/ApplyRange transfers
// across node boundaries, so the pipelined bulk path, doorbell
// batching, and command coalescing all run over the faulty fabric.
// Writers stay disjoint (each node streams into exactly one partition),
// ApplyRange traffic is commutative, and every node folds its own
// GetRange read-back into the fingerprint — so a lost, duplicated, or
// reordered chunk fetch shows up as a fingerprint divergence, not just
// a wrong final state.
func BulkRange(words int64) Workload {
	return Workload{
		Name: "bulk-range",
		Run: func(c *cluster.Cluster, threads int, seed int64) (uint64, []*core.Array) {
			parts := make([]uint64, c.Nodes())
			var arrays []*core.Array
			c.Run(func(n *cluster.Node) {
				ctx0 := n.NewCtx(0)
				a := core.New(n, words)
				add := a.RegisterOp(core.OpAddU64)
				if n.ID() == 0 {
					arrays = []*core.Array{a}
				}
				c.Barrier(ctx0)

				// Each node streams one SetRange into its successor's whole
				// partition: multi-chunk, fully remote, disjoint writers.
				per := words / int64(c.Nodes())
				peer := int64((n.ID() + 1) % c.Nodes())
				src := make([]uint64, per)
				for i := range src {
					src[i] = mix64((uint64(peer*per) + uint64(i)) ^ uint64(seed))
				}
				a.SetRange(ctx0, peer*per, src)
				c.Barrier(ctx0)

				// Alternating rounds of commutative ApplyRange (every
				// thread of every node, over a window straddling two
				// partition boundaries) and full-array GetRange read-backs
				// folded into the fingerprint. The pipeline compresses
				// virtual time, so several rounds are needed to march the
				// traffic through the vtime-keyed partition and stall
				// windows; the read-back each round checks the bulk read
				// path itself, not just the final state.
				h := fnvOffset
				dst := make([]uint64, words)
				for r := 0; r < 4; r++ {
					n.RunThreads(threads, func(ctx *cluster.Ctx) {
						span := words / 2
						vals := make([]uint64, span)
						for i := range vals {
							vals[i] = mix64(uint64(i) + uint64(seed)*17 + uint64(r)*101)
						}
						a.ApplyRange(ctx, add, words/4, vals)
					})
					c.Barrier(ctx0)
					a.GetRange(ctx0, 0, dst)
					for _, v := range dst {
						h = fnvMix(h, v)
					}
					c.Barrier(ctx0)
				}
				parts[n.ID()] = h
			})
			h := fnvOffset
			for _, p := range parts {
				h = fnvMix(h, p)
			}
			return h, arrays
		},
	}
}

// StreamContention is the congestion-control chaos workload: `streams`
// concurrent bulk streams per node all cross the same links at once —
// every node's threads stream disjoint SetRange slices into the
// successor's partition and read them back with GetRange — while the
// fault plan injects loss, duplication, latency spikes, a partition
// window, and a stalled node. Each thread fingerprints only its own
// slice, and the per-(node, thread) digests are folded in fixed order,
// so the fingerprint depends on (threads, seed) alone: adaptive windows
// may reschedule the traffic arbitrarily against fixed ones without
// moving it.
func StreamContention(words int64, streams int) Workload {
	return Workload{
		Name: fmt.Sprintf("stream-contention-%d", streams),
		Run: func(c *cluster.Cluster, threads int, seed int64) (uint64, []*core.Array) {
			parts := make([][]uint64, c.Nodes())
			var arrays []*core.Array
			c.Run(func(n *cluster.Node) {
				ctx0 := n.NewCtx(0)
				a := core.New(n, words)
				if n.ID() == 0 {
					arrays = []*core.Array{a}
				}
				parts[n.ID()] = make([]uint64, streams)
				c.Barrier(ctx0)

				// Thread s owns slice s of the successor partition: all
				// streams of this node contend for the same egress link
				// and the same home runtimes, concurrently.
				per := words / int64(c.Nodes())
				slice := per / int64(streams)
				peer := int64((n.ID() + 1) % c.Nodes())
				for round := 0; round < 3; round++ {
					r := round
					n.RunThreads(streams, func(ctx *cluster.Ctx) {
						base := peer*per + int64(ctx.TID)*slice
						src := make([]uint64, slice)
						for i := range src {
							src[i] = mix64(uint64(base) + uint64(i) + uint64(seed)*29 + uint64(r)*1009)
						}
						a.SetRange(ctx, base, src)
						dst := make([]uint64, slice)
						a.GetRange(ctx, base, dst)
						h := fnvOffset
						for _, v := range dst {
							h = fnvMix(h, v)
						}
						parts[n.ID()][ctx.TID] = fnvMix(parts[n.ID()][ctx.TID], h)
					})
					// Barrier between rounds: the next round overwrites the
					// same slices, so the read-back must settle first.
					c.Barrier(ctx0)
				}
			})
			h := fnvOffset
			for _, node := range parts {
				for _, p := range node {
					h = fnvMix(h, p)
				}
			}
			return h, arrays
		},
	}
}

// PageRank runs the real engine on an RMAT graph and fingerprints the
// ranks quantized to 1e-9: float combine order under Operate is
// scheduling-dependent, but its noise (~1e-16 relative) sits ten orders
// of magnitude below the quantum, while a lost or duplicated
// contribution lands orders of magnitude above it.
func PageRank(scale, iters int) Workload {
	csr := graph.RMAT(graph.DefaultRMAT(scale))
	return Workload{
		Name: "pagerank",
		Run: func(c *cluster.Cluster, threads int, seed int64) (uint64, []*core.Array) {
			parts := make([]uint64, c.Nodes())
			var arrays []*core.Array
			c.Run(func(n *cluster.Node) {
				ctx := n.NewCtx(0)
				eg := engine.NewGraph(n, csr)
				ranks := eg.PageRank(ctx, iters, false)
				h := fnvOffset
				for _, r := range ranks {
					h = fnvMix(h, uint64(int64(math.Round(r*1e9))))
				}
				parts[n.ID()] = h
				if n.ID() == 0 {
					arrays = eg.StateArrays()
				}
			})
			h := fnvOffset
			for _, p := range parts {
				h = fnvMix(h, p)
			}
			return h, arrays
		},
	}
}

// ConnectedComponents runs min-label propagation to a fixed point; the
// labels are integers, so the fingerprint is exact.
func ConnectedComponents(scale int) Workload {
	csr := graph.RMAT(graph.DefaultRMAT(scale))
	return Workload{
		Name: "cc",
		Run: func(c *cluster.Cluster, threads int, seed int64) (uint64, []*core.Array) {
			parts := make([]uint64, c.Nodes())
			var arrays []*core.Array
			c.Run(func(n *cluster.Node) {
				ctx := n.NewCtx(0)
				eg := engine.NewGraph(n, csr)
				labels, _ := eg.ConnectedComponents(ctx, false)
				h := fnvOffset
				for _, l := range labels {
					h = fnvMix(h, l)
				}
				parts[n.ID()] = h
				if n.ID() == 0 {
					arrays = eg.StateArrays()
				}
			})
			h := fnvOffset
			for _, p := range parts {
				h = fnvMix(h, p)
			}
			return h, arrays
		},
	}
}

func kvsKey(i int64) []byte {
	return []byte(fmt.Sprintf("k%07d", i))
}

func kvsVal(i, ver, seed int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], mix64(uint64(i)*0x10001+uint64(ver)^uint64(seed)))
	return b[:]
}

// KVS is a YCSB-B-shaped workload (95% reads, 5% updates) over the
// paper's distributed hash table. Key ownership is striped per global
// worker, so every key's final value is decided by its single owner's
// program order — deterministic no matter how the runs interleave. The
// fingerprint is a full-keyspace scan from node 0.
func KVS(records int64, opsPerThread int) Workload {
	return Workload{
		Name: "kvs-ycsb-b",
		Run: func(c *cluster.Cluster, threads int, seed int64) (uint64, []*core.Array) {
			var fp uint64
			var arrays []*core.Array
			workers := int64(c.Nodes() * threads)
			cfg := kvs.Config{
				Buckets: records / 8,
				// Worst case 3 words per put (header + 7-byte key + 8-byte
				// value), 8x headroom for slab rounding and updates.
				ByteWords: 24 * (records + int64(opsPerThread)*workers),
			}
			c.Run(func(n *cluster.Node) {
				ctx0 := n.NewCtx(0)
				st := kvs.NewDArray(n, cfg)
				if n.ID() == 0 {
					e, b := st.WordStores()
					arrays = []*core.Array{e.(*core.Array), b.(*core.Array)}
				}
				c.Barrier(ctx0)

				// Load: worker w owns keys i with i % workers == w.
				n.RunThreads(threads, func(ctx *cluster.Ctx) {
					w := int64(n.ID()*threads + ctx.TID)
					for i := w; i < records; i += workers {
						st.Put(ctx, kvsKey(i), kvsVal(i, 0, seed))
					}
				})
				c.Barrier(ctx0)

				// Operate: reads anywhere, updates only to owned keys. The
				// rng stream depends only on (seed, worker), never timing.
				n.RunThreads(threads, func(ctx *cluster.Ctx) {
					w := int64(n.ID()*threads + ctx.TID)
					rng := rand.New(rand.NewSource(seed ^ (w+1)*2654435761))
					owned := (records - w + workers - 1) / workers
					ver := int64(0)
					for k := 0; k < opsPerThread; k++ {
						if rng.Intn(100) < 5 && owned > 0 {
							ver++
							i := w + rng.Int63n(owned)*workers
							st.Put(ctx, kvsKey(i), kvsVal(i, ver, seed))
						} else {
							st.Get(ctx, kvsKey(rng.Int63n(records)))
						}
					}
				})
				c.Barrier(ctx0)

				if n.ID() == 0 {
					h := fnvOffset
					for i := int64(0); i < records; i++ {
						v, err := st.Get(ctx0, kvsKey(i))
						if err != nil {
							h = fnvMix(h, ^uint64(0)) // missing-key sentinel
							continue
						}
						h = fnvMix(h, binary.LittleEndian.Uint64(v))
					}
					fp = h
				}
				c.Barrier(ctx0)
			})
			return fp, arrays
		},
	}
}
