package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"

	"darray/internal/cluster"
	"darray/internal/core"
)

func hashWords(h hash.Hash64, ws ...uint64) {
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

// newArray collectively builds one array of n words on b's cluster and
// returns every node's handle.
func newArray(b *built, n int64) (arrs [nodes]*core.Array) {
	b.c.Run(func(nd *cluster.Node) { arrs[nd.ID()] = core.New(nd, n) })
	return arrs
}

// ---------------------------------------------------------------------
// array_stream: each node alternates SetRange and GetRange passes over
// the other node's partition in 8 Ki-word calls. The remote partition
// is 16x the cache, so every chunk is a fill and an eviction. One op is
// one 8-byte word moved; one timed unit is one range call.

const (
	streamWords      = 4 << 20
	streamCacheChunk = 128 // x 2 runtimes x 512 words = 128 Ki words = 1/16 of a partition
	streamCall       = 8 << 10
	streamPasses     = 6 // per rep, alternating Set and Get
)

type streamInst struct {
	arr    [nodes]*core.Array
	pat    [nodes][2][]uint64 // the call-sized pattern each pass tag writes
	spot   [nodes][]int32     // per call, the offset spot-checked after GetRange
	dst    [nodes][]uint64
	tag    [nodes]int // tag of the last completed Set pass
	passes int
}

func setupStream(e env) *built {
	c := cluster.New(e.clusterConfig(streamCacheChunk))
	b := newBuilt(c, e)
	inst := &streamInst{passes: max(2, e.scaled(streamPasses, 2)&^1)}
	inst.arr = newArray(b, streamWords)
	part := int64(streamWords / nodes)
	calls := int(part / streamCall)

	rng := rand.New(rand.NewSource(e.seed))
	h := fnv.New64a()
	for n := 0; n < nodes; n++ {
		for tag := range inst.pat[n] {
			p := make([]uint64, streamCall)
			for j := range p {
				p[j] = rng.Uint64()
			}
			hashWords(h, p...)
			inst.pat[n][tag] = p
		}
		inst.spot[n] = make([]int32, calls)
		for k := range inst.spot[n] {
			inst.spot[n][k] = 1 + rng.Int31n(streamCall-1)
			hashWords(h, uint64(inst.spot[n][k]))
		}
		inst.dst[n] = make([]uint64, streamCall)
		inst.tag[n] = 1 // the first Set pass writes tag 0
	}
	b.inst = inst
	b.inputHash = h.Sum64()
	b.unitsPerRep = inst.passes * calls
	b.opsPerRep = nodes * int64(inst.passes) * part
	b.rangeChunks = b.opsPerRep / int64(c.Config().ChunkWords)
	b.arrayWords = streamWords
	return b
}

// header is word 0 of call k under a tag: it places the call, which the
// position-independent pattern cannot.
func streamHeader(k, tag int) uint64 { return uint64(k)<<8 | uint64(tag) | 1<<63 }

func (s *streamInst) rep(t *thread) {
	a, ctx := s.arr[t.id], t.ctx
	olo, _ := s.arr[1-t.id].LocalRange() // the other node's partition
	spot, dst := s.spot[t.id], s.dst[t.id]
	h, v := now(), ctx.Clock.Now()
	for p := 0; p < s.passes; p++ {
		set := p%2 == 0
		if set {
			s.tag[t.id] ^= 1
		}
		tag := s.tag[t.id]
		pat := s.pat[t.id][tag]
		for k := range spot {
			at := olo + int64(k)*streamCall
			if set {
				pat[0] = streamHeader(k, tag)
				sp := t.sp.begin(spCoreSetRange, at, ctx)
				a.SetRange(ctx, at, pat)
				t.sp.end(sp, ctx)
			} else {
				sp := t.sp.begin(spCoreGetRange, at, ctx)
				a.GetRange(ctx, at, dst)
				t.sp.end(sp, ctx)
				if j := spot[k]; dst[0] != streamHeader(k, tag) || dst[j] != pat[j] {
					t.failed += streamCall
				}
			}
			h2, v2 := now(), ctx.Clock.Now()
			t.sample(h2-h, v2-v)
			h, v = h2, v2
		}
	}
}

// verify reads the whole remote partition back and compares every word
// with the last Set pass (this node is the partition's only writer).
func (s *streamInst) verify(t *thread) {
	a, dst := s.arr[t.id], s.dst[t.id]
	olo, _ := s.arr[1-t.id].LocalRange()
	tag := s.tag[t.id]
	pat := s.pat[t.id][tag]
	for k := range s.spot[t.id] {
		a.GetRange(t.ctx, olo+int64(k)*streamCall, dst)
		pat[0] = streamHeader(k, tag)
		for j, w := range dst {
			if w != pat[j] {
				t.failed++
			}
		}
	}
}

// ---------------------------------------------------------------------
// array_rand: uniform random 8-byte accesses over an array 16x the
// cache, 90% Get / 10% Set, one outstanding single-chunk miss at a
// time. Each node writes only indices congruent to its id (mod 2), with
// a value that names its index, so every read is checkable.

const (
	randWords      = 1 << 20
	randCacheChunk = 64     // x 2 x 512 = 64 Ki words = 1/16 of the array
	randOpsPerRep  = 50_000 // per client
	randSpanEvery  = 16
	randSetBit     = 1 << 31 // in a stream entry: this access is a Set
)

type randInst struct {
	arr [nodes]*core.Array
	ops [nodes][]uint32 // index, with randSetBit marking a Set
	seq [nodes]uint64
}

func setupRand(e env) *built {
	c := cluster.New(e.clusterConfig(randCacheChunk))
	b := newBuilt(c, e)
	inst := &randInst{arr: newArray(b, randWords)}
	h := fnv.New64a()
	for n := range inst.ops {
		rng := rand.New(rand.NewSource(e.seed*nodes + int64(n)))
		ops := make([]uint32, e.scaled(randOpsPerRep, 200))
		for i := range ops {
			idx := uint32(rng.Int63n(randWords))
			if rng.Intn(10) == 0 {
				idx = idx&^1 | uint32(n) | randSetBit
			}
			ops[i] = idx
			hashWords(h, uint64(idx))
		}
		inst.ops[n] = ops
	}
	b.inst = inst
	b.inputHash = h.Sum64()
	b.unitsPerRep = len(inst.ops[0])
	b.opsPerRep = nodes * int64(b.unitsPerRep)
	b.arrayWords = randWords
	return b
}

func (r *randInst) rep(t *thread) {
	a, ctx := r.arr[t.id], t.ctx
	seq := r.seq[t.id]
	h, v := now(), ctx.Clock.Now()
	for k, op := range r.ops[t.id] {
		i := int64(op &^ randSetBit)
		sb := t.sp // nil-safe: only every randSpanEvery-th op records a span
		if k%randSpanEvery != 0 {
			sb = nil
		}
		if op&randSetBit != 0 {
			seq++
			sp := sb.begin(spCoreSet, i, ctx)
			a.Set(ctx, i, uint64(i+1)<<24|seq&0xffffff)
			sb.end(sp, ctx)
		} else {
			sp := sb.begin(spCoreGet, i, ctx)
			w := a.Get(ctx, i)
			sb.end(sp, ctx)
			if w != 0 && w>>24 != uint64(i+1) {
				t.failed++
			}
		}
		h2, v2 := now(), ctx.Clock.Now()
		t.sample(h2-h, v2-v)
		h, v = h2, v2
	}
	r.seq[t.id] = seq
}

// verify has nothing to add: every Get was checked where it returned.
func (r *randInst) verify(*thread) {}

// ---------------------------------------------------------------------
// array_local: each node sweeps its own partition with the lock-free
// fast path and nothing else: no messages after warm-up. The partition
// is three regions - one only read (Get and Pin.Get), one only Set, one
// only Apply(OpAddU64, 1) - so each check has a closed form. A timed
// unit is a batch of localBatch accesses: a sequential Get segment, a
// Set segment, an Apply segment and a pinned segment whose lengths are
// drawn from the seed (per-op timers would dominate a 26 ns hit). The
// virtual clock of this workload is exactly reproducible for a seed.

const (
	localRegion    = 64 << 10 // words per region per node
	localBatch     = 4096
	localMinSeg    = 256
	localBatches   = 6000 // per client per rep
	localSpanEvery = 8
	localMul       = 0x9e3779b97f4a7c15
)

// localSeg is one batch: four segment lengths summing to localBatch.
type localSeg struct{ get, set, apply, pin uint16 }

type localInst struct {
	arr     [nodes]*core.Array
	add     core.OpID
	batches [nodes][]localSeg
	applies [nodes]uint64 // Apply ops per rep
	reps    [nodes]uint64 // reps completed, warm-up included
}

func setupLocal(e env) *built {
	c := cluster.New(e.clusterConfig(0))
	b := newBuilt(c, e)
	inst := &localInst{}
	const words = nodes * 3 * localRegion
	b.c.Run(func(n *cluster.Node) {
		a := core.New(n, words)
		add := a.RegisterOp(core.OpAddU64)
		inst.arr[n.ID()] = a
		if n.ID() == 0 {
			inst.add = add
		}
		// The read-only region holds a function of the index.
		lo, _ := a.LocalRange()
		ctx := b.threads[n.ID()].ctx
		for i := lo; i < lo+localRegion; i++ {
			a.Set(ctx, i, uint64(i)*localMul)
		}
	})
	h := fnv.New64a()
	for n := range inst.batches {
		rng := rand.New(rand.NewSource(e.seed*nodes + int64(n)))
		bs := make([]localSeg, e.scaled(localBatches, 20))
		for i := range bs {
			// Three cut points split the slack above the four minimum lengths.
			const slack = localBatch - 4*localMinSeg
			c1, c2, c3 := rng.Intn(slack+1), rng.Intn(slack+1), rng.Intn(slack+1)
			if c1 > c2 {
				c1, c2 = c2, c1
			}
			if c2 > c3 {
				c2, c3 = c3, c2
			}
			if c1 > c2 {
				c1, c2 = c2, c1
			}
			s := localSeg{
				get:   uint16(localMinSeg + c1),
				set:   uint16(localMinSeg + c2 - c1),
				apply: uint16(localMinSeg + c3 - c2),
				pin:   uint16(localMinSeg + slack - c3),
			}
			bs[i] = s
			inst.applies[n] += uint64(s.apply)
			hashWords(h, uint64(s.get), uint64(s.set), uint64(s.apply), uint64(s.pin))
		}
		inst.batches[n] = bs
	}
	b.inst = inst
	b.inputHash = h.Sum64()
	b.unitsPerRep = len(inst.batches[0])
	b.opsPerRep = nodes * int64(b.unitsPerRep) * localBatch
	b.arrayWords = words
	return b
}

// segSum is the closed form of sum(i*localMul) for i in [at, at+n), in
// wrapping 64-bit arithmetic.
func segSum(at, n uint64) uint64 {
	// n*(2*at+n-1)/2 stays far below 2^64 for these index ranges.
	return n * (2*at + n - 1) / 2 * localMul
}

// advance returns a cursor's segment start, wrapping to the region's
// first word when n more words would cross its end.
func advance(cur *int64, n int64) int64 {
	if *cur+n > localRegion {
		*cur = 0
	}
	at := *cur
	*cur += n
	return at
}

func (l *localInst) rep(t *thread) {
	a, ctx := l.arr[t.id], t.ctx
	base, _ := a.LocalRange()
	rd, wr, ap := base, base+localRegion, base+2*localRegion
	var cg, cs, ca, cp int64 // cursors within each region (Get and Pin share the read-only one)
	h, v := now(), ctx.Clock.Now()
	for k, s := range l.batches[t.id] {
		sb := t.sp // nil-safe: only every localSpanEvery-th batch records spans
		if k%localSpanEvery != 0 {
			sb = nil
		}
		sp := sb.begin(spCoreGet, int64(k), ctx)
		var sum uint64
		at := rd + advance(&cg, int64(s.get))
		for i := at; i < at+int64(s.get); i++ {
			sum += a.Get(ctx, i)
		}
		want := segSum(uint64(at), uint64(s.get))
		sb.end(sp, ctx)

		sp = sb.begin(spCoreSet, int64(k), ctx)
		at = wr + advance(&cs, int64(s.set))
		for i := at; i < at+int64(s.set); i++ {
			a.Set(ctx, i, uint64(i)*localMul+1)
		}
		sb.end(sp, ctx)

		sp = sb.begin(spCoreApply, int64(k), ctx)
		at = ap + advance(&ca, int64(s.apply))
		for i := at; i < at+int64(s.apply); i++ {
			a.Apply(ctx, l.add, i, 1)
		}
		sb.end(sp, ctx)

		sp = sb.begin(spCorePin, int64(k), ctx)
		at = rd + advance(&cp, int64(s.pin))
		want += segSum(uint64(at), uint64(s.pin))
		for end := at + int64(s.pin); at < end; {
			p := a.PinRead(ctx, at)
			lim := min(p.Limit(), end)
			for ; at < lim; at++ {
				sum += p.Get(ctx, at)
			}
			p.Unpin(ctx)
		}
		sb.end(sp, ctx)

		if sum != want {
			t.failed += int64(s.get) + int64(s.pin)
		}
		h2, v2 := now(), ctx.Clock.Now()
		t.sample(h2-h, v2-v)
		h, v = h2, v2
	}
	l.reps[t.id]++
}

// verify checks the written regions: a Set word is untouched or holds
// its index's value, and the Apply region sums to the Applies made.
func (l *localInst) verify(t *thread) {
	a, ctx := l.arr[t.id], t.ctx
	base, _ := a.LocalRange()
	for i := base + localRegion; i < base+2*localRegion; i++ {
		if w := a.Get(ctx, i); w != 0 && w != uint64(i)*localMul+1 {
			t.failed++
		}
	}
	var sum uint64
	for i := base + 2*localRegion; i < base+3*localRegion; i++ {
		sum += a.Get(ctx, i)
	}
	if want := l.applies[t.id] * l.reps[t.id]; sum != want {
		t.failed += int64(max(sum, want) - min(sum, want))
	}
}
