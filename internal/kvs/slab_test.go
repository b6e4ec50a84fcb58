package kvs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"darray/internal/cluster"
	"darray/internal/core"
)

func mustAlloc(t *testing.T, s *Slab, n int64) int64 {
	t.Helper()
	off, err := s.Alloc(n)
	if err != nil {
		t.Fatalf("alloc %d: %v", n, err)
	}
	return off
}

// mustPanic runs fn and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("panic = %v, want one containing %q", r, want)
		}
	}()
	fn()
}

// Slots come out of a page in address order. A freed slot is not handed
// straight back: it returns, in address order with the page's other free
// slots, when the page is swept again.
func TestSlabAllocFree(t *testing.T) {
	s := NewSlab(0, 1<<20)
	cw := s.ChunkWords(10)
	slots := int(defaultPageWords / cw)
	a := mustAlloc(t, s, 10)
	b := mustAlloc(t, s, 10)
	if a != 0 || b != cw {
		t.Fatalf("first two allocs = %d, %d, want 0, %d", a, b, cw)
	}
	s.Free(a, 10)
	for i := 2; i < slots; i++ {
		if off := mustAlloc(t, s, 10); off != int64(i)*cw {
			t.Fatalf("alloc %d = %d, want slot %d at %d", i, off, i, int64(i)*cw)
		}
	}
	// Free every odd slot, highest first: with slot 0 that is over a
	// quarter of the page, so the page is swept again when it is sealed.
	hi := slots - 1
	if hi%2 == 0 {
		hi--
	}
	for i := hi; i > 0; i -= 2 {
		s.Free(int64(i)*cw, 10)
	}
	want := []int64{0}
	for i := 1; i < slots; i += 2 {
		want = append(want, int64(i)*cw)
	}
	for _, w := range want {
		if off := mustAlloc(t, s, 10); off != w {
			t.Fatalf("reuse handed out %d, want %d (freed slots in address order)", off, w)
		}
	}
	if off := mustAlloc(t, s, 10); off != defaultPageWords {
		t.Fatalf("with the page full again, alloc = %d, want a fresh page at %d", off, defaultPageWords)
	}
}

// A sealed page rejoins its class's FIFO when a quarter of its slots are
// free, and not one slot before: until then a fresh page is carved.
func TestSlabPageRejoinsAtAQuarterFree(t *testing.T) {
	s := NewSlab(0, 1<<20)
	const n = 1 // the 8-word class: 1024 slots per page
	slots := int(defaultPageWords / s.ChunkWords(n))
	quarter := slots / reuseDivisor
	for i := 0; i < slots; i++ {
		mustAlloc(t, s, n)
	}
	freeSlot := func(k int) { s.Free(int64(k*reuseDivisor)*minChunkWords, n) } // spread over the page
	for k := 0; k < quarter-1; k++ {
		freeSlot(k)
	}
	for i := 0; i < slots; i++ {
		if off := mustAlloc(t, s, n); off/defaultPageWords != 1 {
			t.Fatalf("alloc %d with %d of %d slots free on page 0 = %d, want page 1", i, quarter-1, slots, off)
		}
	}
	freeSlot(quarter - 1)
	for k := 0; k < quarter; k++ {
		if off, want := mustAlloc(t, s, n), int64(k*reuseDivisor)*minChunkWords; off != want {
			t.Fatalf("reuse %d = %d, want %d", k, off, want)
		}
	}
	if off := mustAlloc(t, s, n); off/defaultPageWords != 2 {
		t.Fatalf("page 0 full again: alloc = %d, want page 2", off)
	}
	if got := s.Used(); got != 3*defaultPageWords {
		t.Fatalf("Used = %d, want 3 pages", got)
	}
}

// Delayed reuse costs no capacity: when the region is full, any one
// freed slot of a class can be allocated again, whichever page it is on
// and however little of that page is free.
func TestSlabFullRegionReusesAnyFreedSlot(t *testing.T) {
	const pages = 4
	s := NewSlab(100, 100+pages*defaultPageWords+50) // the 50-word tail is never carved
	sizes := []int64{10, 3000}                       // 11-word and 3389-word classes
	var live [2][]int64
	for full := [2]bool{}; !full[0] || !full[1]; {
		for ci, n := range sizes {
			if off, err := s.Alloc(n); err != nil {
				full[ci] = true
			} else {
				live[ci] = append(live[ci], off)
			}
		}
	}
	for ci, n := range sizes {
		if _, err := s.Alloc(n); err == nil {
			t.Fatalf("class %d words: alloc on a full region succeeded", n)
		}
		for _, k := range []int{0, len(live[ci]) / 2, len(live[ci]) - 1} {
			off := live[ci][k]
			s.Free(off, n)
			if got, err := s.Alloc(n); err != nil || got != off {
				t.Fatalf("class %d words: freed %d, alloc = (%d, %v), want it back", n, off, got, err)
			}
		}
	}
	s.Free(live[1][0], sizes[1])
	if _, err := s.Alloc(sizes[0]); err == nil {
		t.Fatal("a slot freed in another class's page served an 11-word alloc")
	}
}

// Free rejects what Alloc could not have returned. Over a plain free
// list a second Free of one offset put it on the list twice, and the
// next two Allocs returned the same words.
func TestSlabDoubleFreePanics(t *testing.T) {
	s := NewSlab(0, 1<<20)
	a := mustAlloc(t, s, 10)
	s.Free(a, 10)
	mustPanic(t, "double free of offset 0", func() { s.Free(a, 10) })
	seen := make(map[int64]bool)
	for i := 0; i < 2*int(defaultPageWords/s.ChunkWords(10)); i++ {
		off := mustAlloc(t, s, 10)
		if seen[off] {
			t.Fatalf("offset %d handed out twice", off)
		}
		seen[off] = true
	}
}

func TestSlabFreeChecksOffset(t *testing.T) {
	s := NewSlab(1000, 1000+4*defaultPageWords)
	a := mustAlloc(t, s, 10) // page 0 holds 11-word slots
	mustAlloc(t, s, 100)     // page 1 holds 117-word slots
	mustPanic(t, "offset 999 outside", func() { s.Free(999, 10) })
	mustPanic(t, fmt.Sprintf("offset %d outside", 1000+2*defaultPageWords), func() { s.Free(1000+2*defaultPageWords, 10) })
	mustPanic(t, fmt.Sprintf("offset %d is not on a 11-word slot boundary", a+3), func() { s.Free(a+3, 10) })
	mustPanic(t, fmt.Sprintf("offset %d is not on a 11-word slot boundary", a+11*744), func() { s.Free(a+11*744, 10) }) // past the page's last slot
	mustPanic(t, fmt.Sprintf("offset %d is not on a 117-word slot boundary", a), func() { s.Free(a, 100) })
	mustPanic(t, "double free", func() { s.Free(a+11, 10) }) // never handed out
	s.Free(a, 10)
}

func TestSlabSizeClasses(t *testing.T) {
	s := NewSlab(0, 1<<20)
	if s.ChunkWords(1) != minChunkWords {
		t.Errorf("min class = %d, want %d", s.ChunkWords(1), minChunkWords)
	}
	last := int64(0)
	for n := int64(1); n <= defaultPageWords; n *= 2 {
		c := s.ChunkWords(n)
		if c < n {
			t.Errorf("class for %d words is %d (< requested)", n, c)
		}
		if c < last {
			t.Errorf("class sizes not monotone")
		}
		last = c
	}
	if s.ChunkWords(defaultPageWords+1) != -1 {
		t.Error("oversize request should have no class")
	}
}

func TestSlabExhaustion(t *testing.T) {
	s := NewSlab(0, defaultPageWords) // exactly one page
	if _, err := s.Alloc(minChunkWords); err != nil {
		t.Fatal(err)
	}
	// Allocating a different class needs a second page → must fail.
	if _, err := s.Alloc(defaultPageWords / 2); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

// fuzzSizes mixes small classes, which take many allocations to fill a
// page, with classes of a few slots or one.
var fuzzSizes = []int64{1, 8, 9, 17, 18, 100, 400, 2000, 4096, 8192}

// FuzzSlab drives Alloc and Free against a model of the region: live
// allocations, the class of each carved page and how many of its slots
// are live. Every allocation must lie inside one page of its own class on
// a slot boundary, at an offset no live allocation holds — together,
// no two live allocations overlap — and Alloc may fail only when every
// page is carved and each page of the class is full.
//
// ops[0] picks the base and the page count; each later pair is one call:
// a Free of a live allocation when the first byte is a multiple of 3, an
// Alloc of a fuzzSizes entry otherwise.
func FuzzSlab(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 3, 3, 0, 1, 9, 2, 0, 4, 1})
	f.Add([]byte{1, 1, 9, 1, 9, 1, 9, 1, 8, 3, 0, 1, 9}) // whole pages until exhausted
	// One page of 18 slots, filled; one slot freed, below a quarter, so the
	// page stays off the FIFO; the next Alloc finds it through the
	// exhausted-region scan.
	full := []byte{0}
	for i := 0; i < 19; i++ {
		full = append(full, 1, 6)
	}
	f.Add(append(full, 0, 5, 1, 6))
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]byte, 1500)
		r.Read(ops)
		for i := 1; i+1 < len(ops); i += 2 { // mostly small classes, so pages fill and refill
			if r.Intn(4) != 0 {
				ops[i+1] %= 5
			}
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		base := int64(ops[0]) * 37
		pages := int64(ops[0]%4) + 1
		limit := base + pages*defaultPageWords + int64(ops[0]%3)*1000
		s := NewSlab(base, limit)
		type alloc struct{ off, n int64 }
		var live []alloc
		held := make(map[int64]bool)     // offsets of live allocations
		pageCap := make(map[int64]int64) // carved page -> its slot size
		pageLive := make(map[int64]int)  // carved page -> live slots
		for i := 1; i+1 < len(ops); i += 2 {
			if ops[i]%3 == 0 && len(live) > 0 {
				k := int(ops[i+1]) % len(live)
				a := live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				s.Free(a.off, a.n)
				delete(held, a.off)
				pageLive[(a.off-base)/defaultPageWords]--
				continue
			}
			n := fuzzSizes[int(ops[i+1])%len(fuzzSizes)]
			cw := s.ChunkWords(n)
			off, err := s.Alloc(n)
			if err != nil {
				if int64(len(pageCap)) < pages {
					t.Fatalf("alloc %d: %v with %d of %d pages carved", n, err, len(pageCap), pages)
				}
				for pg, c := range pageCap {
					if c == cw && pageLive[pg] < int(defaultPageWords/cw) {
						t.Fatalf("alloc %d: %v with page %d holding %d live %d-word slots", n, err, pg, pageLive[pg], cw)
					}
				}
				continue
			}
			pg, rel := (off-base)/defaultPageWords, (off-base)%defaultPageWords
			switch {
			case off < base || off+cw > limit:
				t.Fatalf("alloc %d = %d outside [%d, %d)", n, off, base, limit)
			case rel%cw != 0 || rel+cw > defaultPageWords:
				t.Fatalf("alloc %d = %d is not a %d-word slot of page %d", n, off, cw, pg)
			case held[off]:
				t.Fatalf("alloc %d = %d is live already", n, off)
			}
			if c, ok := pageCap[pg]; !ok {
				if pg != int64(len(pageCap)) {
					t.Fatalf("alloc %d carved page %d with %d carved", n, pg, len(pageCap))
				}
				pageCap[pg] = cw
			} else if c != cw {
				t.Fatalf("alloc %d = %d in page %d of %d-word slots", n, off, pg, c)
			}
			held[off] = true
			pageLive[pg]++
			live = append(live, alloc{off, n})
			if got := s.Used(); got != int64(len(pageCap))*defaultPageWords {
				t.Fatalf("Used = %d with %d pages carved", got, len(pageCap))
			}
		}
	})
}

// A Put writes its record into a chunk the other node has read only when
// the slab hands it a slot there. Node 0 replaces records of a preloaded
// key set spanning 72 chunks while node 1 reads the whole set before
// every round, so each chunk holding a live record is Shared on node 1
// when the round's Puts begin. A LIFO free list gave every Put the slot
// the previous Put had just freed — somewhere node 1 had just read — so
// a round paid one invalidation per distinct chunk its Puts touched:
// 0.764 per Put with that free list. Swept pages write a run of records
// into each chunk: 0.043.
func TestRecordWritesInvalidateOncePerChunkRun(t *testing.T) {
	const nodes, keys, rounds, putsPerRound = 2, 2048, 12, 48
	const bound = 0.3
	c := cluster.New(cluster.Config{Nodes: nodes, ChunkWords: 512, CacheChunks: 256, Metrics: true})
	t.Cleanup(c.Close)
	key := func(i int) []byte { return []byte(fmt.Sprintf("inv-%05d", i)) }
	val := func(i, gen int) []byte { // 100 B: with the key, an 18-word class
		return []byte(fmt.Sprintf("%05d/%03d/%s", i, gen, strings.Repeat("v", 90)))
	}
	var invals, puts int64
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, Config{Buckets: 512, ByteWords: nodes << 17})
		ctx := n.NewCtx(0)
		gen := make([]int, keys)
		if n.ID() == 0 {
			for i := 0; i < keys; i++ {
				if err := s.Put(ctx, key(i), val(i, 0)); err != nil {
					t.Error(err)
				}
			}
		}
		_, bytes := s.WordStores()
		served := &bytes.(*core.Array).Metrics.Invals
		r := rand.New(rand.NewSource(1)) // both nodes draw the same replacements
		c.Barrier(ctx)
		before := served.Load()
		for round := 0; round < rounds; round++ {
			if n.ID() == 1 {
				for i := 0; i < keys; i++ {
					if got, err := s.Get(ctx, key(i)); err != nil || string(got) != string(val(i, gen[i])) {
						t.Errorf("round %d get %d = (%q, %v)", round, i, got, err)
					}
				}
			}
			c.Barrier(ctx)
			for p := 0; p < putsPerRound; p++ {
				i := r.Intn(keys)
				gen[i]++
				if n.ID() == 0 {
					if err := s.Put(ctx, key(i), val(i, gen[i])); err != nil {
						t.Error(err)
					}
				}
			}
			c.Barrier(ctx)
		}
		if n.ID() == 1 {
			invals, puts = served.Load()-before, rounds*putsPerRound
		}
		c.Barrier(ctx)
	})
	perPut := float64(invals) / float64(puts)
	t.Logf("%d invalidations of node 1's byte array for %d node-0 Puts: %.3f per Put", invals, puts, perPut)
	if perPut >= bound {
		t.Errorf("record writes invalidated node 1's copy %.3f times per Put, want < %.2f", perPut, bound)
	}
}
