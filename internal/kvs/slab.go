package kvs

import (
	"fmt"
	"math/bits"
	"sync"
)

// Slab is a Memcached-style slab allocator (paper §5.2 ports Memcached's
// SlabAllocator to manage the byte array). It manages a contiguous
// region of the distributed byte array — each node instantiates one over
// its own partition so allocation stays node-local — carving fixed-size
// pages into size-class slots.
//
// Reuse follows the coherence unit. DArray keeps coherence per chunk
// (512 words by default, paper §4), and a Put writes its new record
// before it frees the old one, which the other node has usually read. A
// LIFO free list would hand the next Put exactly that slot, and every
// record write would wait for an invalidation of the other node's copy.
// Instead each class sweeps one page at a time and hands out that page's
// free slots in address order, so consecutive records of a class land in
// the same chunk and one invalidation serves a run of writes:
//
//   - a page the sweep has passed is sealed; it joins its class's FIFO of
//     reusable pages once at least 1/reuseDivisor of its slots are free;
//   - the next sweep takes the FIFO's head, and a fresh page is carved
//     only when the FIFO is empty;
//   - when the region is exhausted, the sealed page with the most free
//     slots is swept anyway, so Alloc fails only when the class has no
//     free slot and no page is left.
//
// Pages never change class. Units are 8-byte words, matching the array
// granularity.
type Slab struct {
	mu        sync.Mutex
	base      int64 // first word of the managed region (global index)
	limit     int64 // one past the last word
	next      int64 // bump pointer for page carving
	classes   []slabClass
	pages     []slabPage // carved pages, the i-th at base + i*pageWords
	pageWords int64
}

type slabClass struct {
	chunkWords int64
	slots      int   // slots per page
	sweep      int   // index of the page being swept, -1 if none
	cursor     int   // next slot of that page to look at
	reusable   []int // FIFO of sealed pages with at least 1/reuseDivisor of their slots free
}

// slabPage is one carved page. A set bit in used is a slot handed out and
// not yet freed; free counts the clear bits below the class's slot count.
type slabPage struct {
	class  int
	used   [defaultPageWords / minChunkWords / 64]uint64 // room for the smallest class's slots
	free   int
	queued bool // in its class's reusable FIFO
}

const (
	minChunkWords    = 8 // 64 B
	growthFactorNum  = 5 // 1.25 growth factor, as memcached's default-ish
	growthFactorDen  = 4
	defaultPageWords = 8192 // 64 KiB pages
	// reuseDivisor sets when a sealed page is swept again: once at least a
	// quarter of its slots are free, so a sweep writes several records per
	// chunk instead of one scattered slot here and there.
	reuseDivisor = 4
)

// NewSlab manages words [base, limit) of a global array.
func NewSlab(base, limit int64) *Slab {
	s := &Slab{base: base, limit: limit, next: base, pageWords: defaultPageWords}
	for c := int64(minChunkWords); c < s.pageWords; c = c*growthFactorNum/growthFactorDen + 1 {
		s.addClass(c)
	}
	// A whole-page class caps the ladder so any object up to a page fits.
	s.addClass(s.pageWords)
	return s
}

func (s *Slab) addClass(chunkWords int64) {
	s.classes = append(s.classes, slabClass{chunkWords: chunkWords, slots: int(s.pageWords / chunkWords), sweep: -1})
}

// classFor returns the index of the smallest class fitting n words.
func (s *Slab) classFor(n int64) int {
	for i := range s.classes {
		if s.classes[i].chunkWords >= n {
			return i
		}
	}
	return -1
}

func (s *Slab) pageBase(pi int) int64 { return s.base + int64(pi)*s.pageWords }

// Alloc returns the global word offset of a chunk of at least n words,
// or an error when the region is exhausted.
func (s *Slab) Alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("kvs: alloc of %d words", n)
	}
	ci := s.classFor(n)
	if ci < 0 {
		return 0, fmt.Errorf("kvs: object of %d words exceeds max chunk %d", n, s.pageWords)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cl := &s.classes[ci]
	for {
		if cl.sweep >= 0 {
			p := &s.pages[cl.sweep]
			if i := p.nextFree(cl.cursor, cl.slots); i >= 0 {
				p.used[i/64] |= 1 << (i % 64)
				p.free--
				cl.cursor = i + 1
				return s.pageBase(cl.sweep) + int64(i)*cl.chunkWords, nil
			}
			// The sweep has passed the whole page: seal it.
			s.maybeQueue(cl, cl.sweep)
			cl.sweep = -1
		}
		pi := s.nextPage(ci)
		if pi < 0 {
			return 0, fmt.Errorf("kvs: slab region exhausted (%d of %d words used)",
				s.next-s.base, s.limit-s.base)
		}
		cl.sweep, cl.cursor = pi, 0
	}
}

// maybeQueue puts sealed page pi on cl's reusable FIFO once at least
// 1/reuseDivisor of its slots are free.
func (s *Slab) maybeQueue(cl *slabClass, pi int) {
	if p := &s.pages[pi]; !p.queued && p.free*reuseDivisor >= cl.slots {
		p.queued = true
		cl.reusable = append(cl.reusable, pi)
	}
}

// nextPage picks the page class ci sweeps next — the reusable FIFO's
// head, else a fresh page, else (region exhausted) the class's page with
// the most free slots — or returns -1 when the class has no free slot.
func (s *Slab) nextPage(ci int) int {
	cl := &s.classes[ci]
	if len(cl.reusable) > 0 {
		pi := cl.reusable[0]
		cl.reusable = cl.reusable[1:]
		s.pages[pi].queued = false
		return pi
	}
	if s.next+s.pageWords <= s.limit {
		s.next += s.pageWords
		s.pages = append(s.pages, slabPage{class: ci, free: cl.slots})
		return len(s.pages) - 1
	}
	best := -1
	for pi := range s.pages {
		if p := &s.pages[pi]; p.class == ci && p.free > 0 && (best < 0 || p.free > s.pages[best].free) {
			best = pi
		}
	}
	return best
}

// nextFree returns the first free slot at or after from among the page's
// first slots slots, or -1.
func (p *slabPage) nextFree(from, slots int) int {
	for w := from / 64; w*64 < slots; w++ {
		m := ^p.used[w]
		if w == from/64 {
			m &= ^uint64(0) << (from % 64)
		}
		if m != 0 {
			if i := w*64 + bits.TrailingZeros64(m); i < slots {
				return i
			}
			return -1
		}
	}
	return -1
}

// Free returns a chunk of capacity n words (the n passed to Alloc) to
// its size class. It panics on an offset Alloc of n words could not have
// returned or that is already free: such a Free would hand the same words
// to two records.
func (s *Slab) Free(off, n int64) {
	ci := s.classFor(n)
	if ci < 0 {
		panic(fmt.Sprintf("kvs: free of offset %d with oversized %d words", off, n))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < s.base || off >= s.next {
		panic(fmt.Sprintf("kvs: free of offset %d outside the slab's carved region [%d, %d)", off, s.base, s.next))
	}
	cl := &s.classes[ci]
	pi := int((off - s.base) / s.pageWords)
	p := &s.pages[pi]
	rel := off - s.pageBase(pi)
	i := int(rel / cl.chunkWords)
	if p.class != ci || rel%cl.chunkWords != 0 || i >= cl.slots {
		panic(fmt.Sprintf("kvs: free of offset %d is not on a %d-word slot boundary", off, cl.chunkWords))
	}
	bit := uint64(1) << (i % 64)
	if p.used[i/64]&bit == 0 {
		panic(fmt.Sprintf("kvs: double free of offset %d: the slot is already free", off))
	}
	p.used[i/64] &^= bit
	p.free++
	if cl.sweep != pi {
		s.maybeQueue(cl, pi)
	}
}

// ChunkWords reports the allocated capacity class for a request of n
// words (what Free must be called with is n itself; this helper exposes
// internal rounding for tests and stats).
func (s *Slab) ChunkWords(n int64) int64 {
	ci := s.classFor(n)
	if ci < 0 {
		return -1
	}
	return s.classes[ci].chunkWords
}

// Used reports words carved from the region so far (pages, not chunks).
func (s *Slab) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next - s.base
}
