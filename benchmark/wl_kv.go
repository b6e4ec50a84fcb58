package main

import (
	"hash"
	"hash/fnv"

	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/kvs"
	"darray/internal/ycsb"
)

// kv_read and kv_update: the paper's DArray-KVS under YCSB (Fig. 17),
// 16 Ki records of 100 B, zipfian 0.99. One op and one timed unit is a
// Get or a Put; every Get is checked with ycsb.ValidValue.
const (
	kvRecords    = 16 << 10
	kvValueLen   = 100
	kvOpsPerRep  = 32_000 // per client
	kvSpanEvery  = 64     // traced run: one KVS op in this many records spans
	slabPageSize = 8192   // kvs slab page, words
)

type kvInst struct {
	stores [nodes]*kvs.Store
	ops    [nodes][]ycsb.Op
}

// setupKV builds the store and the per-client op streams for one get
// ratio (0.95 = YCSB-B, 0.5 = YCSB-A).
func setupKV(getRatio float64) func(e env) *built {
	return func(e env) *built {
		inst := &kvInst{}
		h := fnv.New64a()
		var puts int64 // the busier client's puts in one rep
		for n := range inst.ops {
			g := ycsb.NewGenerator(ycsb.Config{
				Records: kvRecords, GetRatio: getRatio, ValueLen: kvValueLen,
				Seed: e.seed*nodes + int64(n),
			})
			ops := make([]ycsb.Op, e.scaled(kvOpsPerRep, 200))
			var p int64
			for i := range ops {
				ops[i] = g.Next()
				hashOp(h, &ops[i])
				if ops[i].Kind == ycsb.OpPut {
					p++
				}
			}
			inst.ops[n] = ops
			puts = max(puts, p)
		}

		// Size the byte array for every put of the run. A replaced record's
		// chunk returns to its allocator's slab only when that is the
		// replacing node (kvs.freeKV leaks cross-node frees by design), so in
		// the worst interleaving every put carves a fresh chunk.
		recWords := 1 + (len(ycsb.Key(0))+7)/8 + (kvValueLen+7)/8
		chunk := kvs.NewSlab(0, slabPageSize).ChunkWords(int64(recWords))
		perNode := (kvRecords/nodes + puts*int64(e.reps+1)) * chunk
		perNode = (perNode/slabPageSize + 2) * slabPageSize
		cfg := kvs.Config{Buckets: kvRecords / 8, ByteWords: nodes * perNode}

		c := cluster.New(e.clusterConfig(0))
		b := newBuilt(c, e)
		b.inst = inst
		b.inputHash = h.Sum64()
		b.unitsPerRep = len(inst.ops[0])
		b.opsPerRep = nodes * int64(b.unitsPerRep)
		entryWords, _ := kvs.Sizes(cfg, nodes)
		b.arrayWords = entryWords + kvRecords*chunk // the working set, not the slab's capacity

		loader := ycsb.NewGenerator(ycsb.Config{Records: kvRecords, ValueLen: kvValueLen})
		b.c.Run(func(n *cluster.Node) {
			t := b.threads[n.ID()]
			if e.traced() {
				entries := core.New(n, entryWords)
				bytes := core.New(n, cfg.ByteWords)
				var sp [nodes]*spanBuf
				for i, th := range b.threads {
					sp[i] = th.sp
				}
				inst.stores[n.ID()] = kvs.New(n, timedStore{entries, sp}, timedStore{bytes, sp}, cfg)
			} else {
				inst.stores[n.ID()] = kvs.NewDArray(n, cfg)
			}
			// Each node preloads its half of the key space.
			per := int64(kvRecords / nodes)
			for r := int64(n.ID()) * per; r < int64(n.ID()+1)*per; r++ {
				if err := inst.stores[n.ID()].Put(t.ctx, ycsb.Key(r), loader.LoadValue(r)); err != nil {
					panic("benchmark: kv preload: " + err.Error())
				}
			}
			b.c.Barrier(t.ctx)
		})
		return b
	}
}

func hashOp(h hash.Hash64, op *ycsb.Op) {
	h.Write([]byte{byte(op.Kind)})
	h.Write(op.Key)
	h.Write(op.Val)
}

func (k *kvInst) rep(t *thread) {
	store, ctx := k.stores[t.id], t.ctx
	h, v := now(), ctx.Clock.Now()
	for i := range k.ops[t.id] {
		op := &k.ops[t.id][i]
		sb := t.sp // nil-safe: only every kvSpanEvery-th op records spans
		if i%kvSpanEvery != 0 {
			sb = nil
		}
		name := spKvsPut
		if op.Kind == ycsb.OpGet {
			name = spKvsGet
		}
		sp := sb.begin(name, int64(i), ctx)
		if op.Kind == ycsb.OpGet {
			val, err := store.Get(ctx, op.Key)
			if err != nil || !ycsb.ValidValue(op.ID, val) {
				t.failed++
			}
		} else if err := store.Put(ctx, op.Key, op.Val); err != nil {
			t.failed++ // includes "slab region exhausted"
		}
		sb.end(sp, ctx)
		h2, v2 := now(), ctx.Clock.Now()
		t.sample(h2-h, v2-v)
		h, v = h2, v2
	}
}

// verify has nothing to add: every Get was checked where it returned.
func (k *kvInst) verify(*thread) {}
