package kvs

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"darray/internal/cluster"
	"darray/internal/core"
)

// Buckets and records are read and written whole. These tests hold the
// store to what that promises: records that cross a chunk boundary of
// the array underneath, entries only the record can tell apart, one
// access per bucket and per tag match, no heap traffic beyond the value
// a Get returns, and no torn record under a racing replace.

// entryOf returns the entry the store holds for key (test access to
// probe, under the bucket's reader lock).
func entryOf(t *testing.T, s *Store, ctx *cluster.Ctx, key []byte) (size, off int64) {
	t.Helper()
	b, tag := s.hashKey(key)
	sc := new(scratch)
	s.entries.RLock(ctx, s.bucketBase(b))
	_, ent, found, _, _ := s.probe(ctx, sc, b, tag, key)
	s.entries.Unlock(ctx, s.bucketBase(b))
	if !found {
		t.Errorf("key %q has no entry", key)
	}
	_, size, off = unpackEntry(ent)
	return size, off
}

// Ten-word records land in the slab's 11-word class, which does not
// divide the 64-word chunks of the test cluster (as the benchmark's
// class 18 does not divide 512): some records straddle a chunk boundary
// and their single ranged access is two chunk pieces. They must behave
// like any other record, read from their home and from the other node.
func TestRecordStraddlingChunkBoundary(t *testing.T) {
	const nodes, keys, chunkWords = 2, 40, 64
	c := tc(t, nodes)
	val := func(node, i int, gen byte) []byte {
		return bytes.Repeat([]byte{gen, byte(node), byte(i)}, 20) // 60 B: 1 + 1 + 8 words with an 8-byte key
	}
	key := func(node, i int) []byte { return []byte(fmt.Sprintf("n%d-k%04d", node, i)) }
	var straddlers atomic.Int64
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, Config{Buckets: 64, ByteWords: nodes << 17})
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		for i := 0; i < keys; i++ {
			if err := s.Put(ctx, key(n.ID(), i), val(n.ID(), i, 'a')); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		c.Barrier(ctx)
		straddles := func(node, i int) bool {
			size, off := entryOf(t, s, ctx, key(node, i))
			return off/chunkWords != (off+size-1)/chunkWords
		}
		// Every node reads every record; the other node's straddlers come
		// over the wire as two chunks.
		for node := 0; node < nodes; node++ {
			for i := 0; i < keys; i++ {
				if straddles(node, i) && node == n.ID() {
					straddlers.Add(1)
				}
				if got, err := s.Get(ctx, key(node, i)); err != nil || !bytes.Equal(got, val(node, i, 'a')) {
					t.Errorf("node %d get %s: (%q, %v)", n.ID(), key(node, i), got, err)
				}
			}
		}
		c.Barrier(ctx)
		// Replace and delete the other node's records, straddlers included:
		// the new record is written into this node's slab, the entry moves.
		other := (n.ID() + 1) % nodes
		for i := 0; i < keys; i++ {
			if err := s.Put(ctx, key(other, i), val(other, i, 'b')); err != nil {
				t.Errorf("replace: %v", err)
			}
		}
		c.Barrier(ctx)
		for i := 0; i < keys; i++ {
			if got, err := s.Get(ctx, key(n.ID(), i)); err != nil || !bytes.Equal(got, val(n.ID(), i, 'b')) {
				t.Errorf("after replace, get %s: (%q, %v)", key(n.ID(), i), got, err)
			}
			if i%2 == 0 {
				if err := s.Delete(ctx, key(n.ID(), i)); err != nil {
					t.Errorf("delete %s: %v", key(n.ID(), i), err)
				}
			}
		}
		c.Barrier(ctx)
		for i := 0; i < keys; i++ {
			got, err := s.Get(ctx, key(other, i))
			if i%2 == 0 && err != ErrNotFound {
				t.Errorf("deleted %s still returns (%q, %v)", key(other, i), got, err)
			}
			if i%2 == 1 && (err != nil || !bytes.Equal(got, val(other, i, 'b'))) {
				t.Errorf("surviving %s: (%q, %v)", key(other, i), got, err)
			}
		}
		c.Barrier(ctx)
	})
	if straddlers.Load() == 0 {
		t.Fatal("no record straddled a chunk boundary: the test exercises nothing")
	}
	t.Logf("%d of %d records straddled a chunk boundary", straddlers.Load(), nodes*keys)
}

// sameBucketAndTag finds two keys the entry array cannot tell apart.
func sameBucketAndTag(t *testing.T, s *Store) (a, b []byte) {
	t.Helper()
	type slot struct {
		bucket int64
		tag    uint8
	}
	seen := make(map[slot][]byte)
	for i := 0; i < 1<<20; i++ {
		k := []byte(fmt.Sprintf("twin-%07d", i)) // one length: equal record sizes
		bk, tag := s.hashKey(k)
		if prev, ok := seen[slot{bk, tag}]; ok {
			return prev, k
		}
		seen[slot{bk, tag}] = k
	}
	t.Error("no two keys share a bucket and a tag")
	return []byte("twin-a"), []byte("twin-b")
}

// Two keys with the same bucket and the same tag are told apart by the
// record alone; values of the same length keep the entries' sizes equal
// too, so nothing but the key comparison can resolve them.
func TestSameBucketSameTagBothResolve(t *testing.T) {
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, Config{Buckets: 4, ByteWords: 1 << 17})
		ctx := n.NewCtx(0)
		a, b := sameBucketAndTag(t, s)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Error(err)
			}
		}
		must(s.Put(ctx, a, []byte("value-of-a")))
		must(s.Put(ctx, b, []byte("value-of-b")))
		for k, want := range map[string]string{string(a): "value-of-a", string(b): "value-of-b"} {
			if got, err := s.Get(ctx, []byte(k)); err != nil || string(got) != want {
				t.Errorf("get %q = (%q, %v), want %q", k, got, err, want)
			}
		}
		// Replacing the second must not touch the first, and deleting the
		// first must leave the second.
		must(s.Put(ctx, b, []byte("VALUE-OF-B")))
		if got, _ := s.Get(ctx, a); string(got) != "value-of-a" {
			t.Errorf("replacing %q changed %q to %q", b, a, got)
		}
		must(s.Delete(ctx, a))
		if _, err := s.Get(ctx, a); err != ErrNotFound {
			t.Errorf("deleted twin still found: %v", err)
		}
		if got, err := s.Get(ctx, b); err != nil || string(got) != "VALUE-OF-B" {
			t.Errorf("surviving twin = (%q, %v)", got, err)
		}
		if st := s.Scan(ctx); st.UsedEntries != 1 {
			t.Errorf("UsedEntries = %d, want 1", st.UsedEntries)
		}
	})
}

// counted is a WordStore that counts the calls made to it in *calls.
type counted struct {
	WordStore
	calls *int64
}

func (s counted) GetRange(ctx *cluster.Ctx, i int64, dst []uint64) {
	*s.calls++
	s.WordStore.GetRange(ctx, i, dst)
}

func (s counted) SetRange(ctx *cluster.Ctx, i int64, src []uint64) {
	*s.calls++
	s.WordStore.SetRange(ctx, i, src)
}

func (s counted) RLock(ctx *cluster.Ctx, i int64)  { *s.calls++; s.WordStore.RLock(ctx, i) }
func (s counted) WLock(ctx *cluster.Ctx, i int64)  { *s.calls++; s.WordStore.WLock(ctx, i) }
func (s counted) Unlock(ctx *cluster.Ctx, i int64) { *s.calls++; s.WordStore.Unlock(ctx, i) }

// The cost of a Get in calls to the arrays underneath: the lock pair, one
// range per bucket walked, one per record whose tag matched. On an
// unchained bucket with no tag collision that is exactly 4. Buckets and
// the records below lie inside one chunk each, so every range call is a
// single chunk acquisition.
func TestGetIsOneAccessPerBucketAndPerTagMatch(t *testing.T) {
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		ctx := n.NewCtx(0)
		newCounted := func(cfg Config) (*Store, *int64) {
			calls := new(int64)
			ew, bw := Sizes(cfg, 1)
			return New(n, counted{core.New(n, ew), calls}, counted{core.New(n, bw), calls}, cfg), calls
		}
		getOps := func(s *Store, calls *int64, key []byte) int64 {
			t.Helper()
			before := *calls
			if _, err := s.Get(ctx, key); err != nil {
				t.Errorf("get %q: %v", key, err)
			}
			return *calls - before
		}

		// Both stores first: arrays are created before traffic starts.
		wide, wideCalls := newCounted(Config{Buckets: 64, ByteWords: 1 << 17})
		chain, chainCalls := newCounted(Config{Buckets: 1, ByteWords: 1 << 17})
		if err := wide.Put(ctx, []byte("only"), []byte("value")); err != nil {
			t.Error(err)
		}
		if got := getOps(wide, wideCalls, []byte("only")); got != 4 {
			t.Errorf("hit Get on an unchained bucket made %d core calls, want 4 (RLock, bucket, record, Unlock)", got)
		}

		// One main bucket: 40 keys chain three buckets, in insertion order.
		// Three-word records sit in the 8-word class, which divides the
		// chunk, so every record read is one piece.
		const keys = 40
		key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
		tags := make([]uint8, keys)
		for i := 0; i < keys; i++ {
			if err := chain.Put(ctx, key(i), []byte("12345678")); err != nil {
				t.Error(err)
			}
			_, tags[i] = chain.hashKey(key(i))
		}
		for i := 0; i < keys; i++ {
			matches := int64(0)
			for j := 0; j <= i; j++ {
				if tags[j] == tags[i] {
					matches++
				}
			}
			buckets := int64(i/entriesPerBkt + 1)
			if got, want := getOps(chain, chainCalls, key(i)), 2+buckets+matches; got != want {
				t.Errorf("Get of key %d (bucket %d of its chain, %d tag matches) made %d core calls, want %d",
					i, buckets, matches, got, want)
			}
		}
	})
}

// A warm Get allocates the value it returns and nothing else; a warm Put
// allocates what it did when records were written word by word (the home
// lock table's entry for an idle lock, its queue, the release).
func TestWarmGetAllocatesOnlyItsValue(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts need a release build and steady state")
	}
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, Config{Buckets: 64, ByteWords: 2 << 17})
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 0 {
			key, val := []byte("user00000000000000000042"), make([]byte, 100)
			for i := 0; i < 50; i++ { // warm the pools, the slab's page reuse, the gate
				s.Put(ctx, key, val)
				s.Get(ctx, key)
			}
			if got := testing.AllocsPerRun(500, func() { s.Get(ctx, key) }); got != 1 {
				t.Errorf("warm Get allocates %.2f, want 1 (the returned value)", got)
			}
			if got := testing.AllocsPerRun(500, func() { s.Put(ctx, key, val) }); got > 3 {
				t.Errorf("warm Put allocates %.2f, want at most the 3 of the word-at-a-time store", got)
			}
		}
		c.Barrier(ctx)
	})
}

// A reader on one node races replaces of the same key on the other. The
// record is written whole before the entry points at it and read whole
// under the reader lock, so every value seen is one generation's bytes
// from end to end — never a splice, never a wrong length.
func TestReaderRacingReplacesSeesWholeValues(t *testing.T) {
	const rounds = 300
	c := tc(t, 2)
	key := []byte("contended")
	gen := func(g int) []byte { return bytes.Repeat([]byte{byte('A' + g%26)}, 90+g%7) }
	var done atomic.Bool
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, Config{Buckets: 16, ByteWords: 2 << 17})
		ctx := n.NewCtx(0)
		if n.ID() == 0 {
			if err := s.Put(ctx, key, gen(0)); err != nil {
				t.Error(err)
			}
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			for g := 1; g <= rounds; g++ {
				if err := s.Put(ctx, key, gen(g)); err != nil {
					t.Errorf("replace %d: %v", g, err)
					break
				}
			}
			done.Store(true)
		} else {
			last := -1
			for reads := 0; !done.Load() || reads == 0; reads++ {
				v, err := s.Get(ctx, key)
				if err != nil {
					t.Errorf("get: %v", err)
					break
				}
				g := -1
				for cand := max(last, 0); cand <= rounds; cand++ {
					if bytes.Equal(v, gen(cand)) {
						g = cand
						break
					}
				}
				if g < 0 {
					t.Errorf("read %d: %d bytes %q is no generation at or after %d: torn or stale", reads, len(v), v, last)
					break
				}
				last = g
			}
		}
		c.Barrier(ctx)
		if v, err := s.Get(ctx, key); err != nil || !bytes.Equal(v, gen(rounds)) {
			t.Errorf("node %d final value = (%q, %v)", n.ID(), v, err)
		}
		c.Barrier(ctx)
	})
}
