// Package kvs implements the paper's distributed key-value store (§5.2):
// an entry array partitioned into buckets of 15 entries plus an overflow
// pointer, and a byte array managed by a Memcached-style slab allocator.
// Each 8-byte entry packs an 8-bit tag, a 16-bit size, and a 40-bit word
// offset into the byte array. Gets probe a bucket under the distributed
// reader lock; puts update it under the writer lock.
//
// A bucket and a record are each one access: the store reads and writes
// them whole, as ranges, and works on its private copy. That is the
// paper's own answer to runs of adjacent elements (take the reference
// once, §4.1) — a Get on an unchained bucket is four calls into the
// array underneath (RLock, bucket, record, Unlock), whatever the record's
// length.
//
// The store is generic over a WordStore, so the same code runs on
// DArray (internal/core) and on the GAM baseline (internal/gamkvs wires
// that up), which is exactly the comparison in the paper's Figure 17.
package kvs

import (
	"encoding/binary"
	"errors"
	"sync"

	"darray/internal/cluster"
)

// WordStore is the distributed-array interface the KVS is built on:
// ranged reads and writes plus element locks. Both *core.Array and
// *gam.Array satisfy it.
type WordStore interface {
	GetRange(ctx *cluster.Ctx, i int64, dst []uint64)
	SetRange(ctx *cluster.Ctx, i int64, src []uint64)
	RLock(ctx *cluster.Ctx, i int64)
	WLock(ctx *cluster.Ctx, i int64)
	Unlock(ctx *cluster.Ctx, i int64)
	LocalRange() (int64, int64)
	Len() int64
}

const (
	// BucketWords is the bucket layout: 15 entries + 1 overflow pointer.
	BucketWords    = 16
	entriesPerBkt  = 15
	tagBits        = 8
	sizeBits       = 16
	offBits        = 40
	maxKVWords     = (1 << sizeBits) - 1
	overflowFactor = 4 // 1/overflowFactor of buckets reserved for chains
)

// entry packing: [ tag:8 | size:16 | off:40 ], zero means empty.
func packEntry(tag uint8, sizeWords int64, off int64) uint64 {
	return uint64(tag)<<56 | uint64(sizeWords)<<40 | uint64(off)
}

func unpackEntry(e uint64) (tag uint8, sizeWords int64, off int64) {
	return uint8(e >> 56), int64(e>>40) & 0xffff, int64(e & ((1 << offBits) - 1))
}

// Store is one node's handle to the distributed KVS.
type Store struct {
	entries WordStore
	bytes   WordStore
	slab    *Slab
	node    *cluster.Node

	nBuckets   int64 // main buckets
	oflowBase  int64 // first overflow bucket index
	oflowLimit int64
	oflowMu    sync.Mutex
	oflowNext  int64 // local overflow cursor into this node's share

	// scratch recycles the per-operation buffers (*scratch). They are
	// handed to interface methods, so on the stack they would escape and
	// cost every Get two allocations beyond the value it returns. It is
	// allocated apart from the Store: the runtime lists every pool in use
	// process-wide until two collections after its last Put, and a pool
	// embedded here kept the Store, its arrays and the whole cluster
	// reachable that long after the store was dropped.
	scratch *sync.Pool
}

// scratch is one operation's private copy of what it reads and writes:
// the bucket being probed and one record (the candidate a tag matched,
// or the record a Put encodes). rec keeps its capacity across uses.
type scratch struct {
	bkt [BucketWords]uint64
	rec []uint64
}

// record returns sc.rec sized to n words.
func (sc *scratch) record(n int64) []uint64 {
	if int64(cap(sc.rec)) < n {
		sc.rec = make([]uint64, n)
	}
	sc.rec = sc.rec[:n]
	return sc.rec
}

// Node returns this handle's node.
func (s *Store) Node() *cluster.Node { return s.node }

// WordStores exposes the underlying entry and byte stores, so harnesses
// (chaos testing) can reach the backing arrays for invariant checks.
func (s *Store) WordStores() (entries, bytes WordStore) { return s.entries, s.bytes }

// ErrNotFound is returned by Get/Delete when the key is absent.
var ErrNotFound = errors.New("kvs: key not found")

// Config sizes the store.
type Config struct {
	Buckets   int64 // main bucket count (rounded up to a power of two)
	ByteWords int64 // byte-array capacity in words
}

// New collectively creates the KVS over the given stores. entries must
// have (Buckets + Buckets/overflowFactor) * BucketWords elements and
// bytes must have ByteWords elements; use Sizes to compute them.
func New(node *cluster.Node, entries, bytes WordStore, cfg Config) *Store {
	nb := ceilPow2(cfg.Buckets)
	s := &Store{
		entries:   entries,
		bytes:     bytes,
		node:      node,
		nBuckets:  nb,
		oflowBase: nb,
		scratch:   &sync.Pool{New: func() any { return new(scratch) }},
	}
	s.oflowLimit = nb + overflowCount(nb, node.Cluster().Nodes())
	// Slab manages this node's local partition of the byte array.
	lo, hi := bytes.LocalRange()
	s.slab = NewSlab(lo, hi)
	// Per-node overflow slice: node v allocates overflow buckets from
	// its own 1/n share of the overflow area.
	c := node.Cluster()
	share := (s.oflowLimit - s.oflowBase) / int64(c.Nodes())
	s.oflowNext = s.oflowBase + int64(node.ID())*share
	return s
}

// Sizes returns the required entry-array and byte-array lengths for cfg
// on a cluster with the given node count.
func Sizes(cfg Config, nodes int) (entryWords, byteWords int64) {
	nb := ceilPow2(cfg.Buckets)
	return (nb + overflowCount(nb, nodes)) * BucketWords, cfg.ByteWords
}

// overflowCount reserves chain buckets: a quarter of the main buckets,
// with a floor of eight per node so tiny tables can still chain.
func overflowCount(nb int64, nodes int) int64 {
	n := nb / overflowFactor
	if min := int64(8 * nodes); n < min {
		n = min
	}
	return n
}

func ceilPow2(n int64) int64 {
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// hashKey maps a key to (bucket, tag) by 64-bit FNV-1a. Tag 0 is
// reserved for empty entries, so tags are folded into 1..255.
func (s *Store) hashKey(key []byte) (bucket int64, tag uint8) {
	v := uint64(14695981039346656037)
	for _, c := range key {
		v = (v ^ uint64(c)) * 1099511628211
	}
	bucket = int64(v & uint64(s.nBuckets-1))
	tag = uint8(v >> 56)
	if tag == 0 {
		tag = 1
	}
	return bucket, tag
}

func (s *Store) bucketBase(b int64) int64 { return b * BucketWords }

// kv layout in the byte array: word 0 = [keyBytes u32 | valBytes u32],
// then the key words, then the value words.
func kvWords(keyLen, valLen int) int64 {
	return 1 + wordsFor(keyLen) + wordsFor(valLen)
}

func wordsFor(n int) int64 { return int64((n + 7) / 8) }

// packWord is the little-endian word holding b's first 8 bytes, zero
// padded when b is shorter.
func packWord(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var buf [8]byte
	copy(buf[:], b)
	return binary.LittleEndian.Uint64(buf[:])
}

// encode lays key and val out as a record in rec, which must be
// kvWords(len(key), len(val)) long, and returns it.
func encode(rec []uint64, key, val []byte) []uint64 {
	rec[0] = uint64(len(key))<<32 | uint64(len(val))
	w := rec[1:]
	for _, b := range [2][]byte{key, val} {
		for i := 0; i < len(b); i += 8 {
			w[i/8] = packWord(b[i:])
		}
		w = w[wordsFor(len(b)):]
	}
	return rec
}

// recordLens splits a record's header word.
func recordLens(hdr uint64) (keyLen, valLen int) {
	return int(hdr >> 32), int(hdr & 0xffffffff)
}

// decodeVal copies the value out of a whole record.
func decodeVal(rec []uint64) []byte {
	kl, vl := recordLens(rec[0])
	words := rec[1+wordsFor(kl):]
	buf := make([]byte, 8*len(words)) // whole words; the tail padding is cut off below
	for w, v := range words {
		binary.LittleEndian.PutUint64(buf[8*w:], v)
	}
	return buf[:vl]
}

// holds reads the record an entry points at — size words at off, in one
// access — into sc.rec and reports whether it stores exactly key. The
// header must agree with the entry's size, so a record is never decoded
// past the words that were read.
func (s *Store) holds(ctx *cluster.Ctx, sc *scratch, off, size int64, key []byte) bool {
	rec := sc.record(size)
	s.bytes.GetRange(ctx, off, rec)
	kl, vl := recordLens(rec[0])
	if kl != len(key) || kvWords(kl, vl) != size {
		return false
	}
	for i := 0; i < kl; i += 8 {
		if rec[1+i/8] != packWord(key[i:]) {
			return false
		}
	}
	return true
}

// probe walks bucket b (and its overflow chain) looking for key, one
// ranged read per bucket on the chain and one per tag match, and returns
// the entry's global index, its contents, and whether it matched — the
// matching record is then in sc.rec. When no match is found, firstFree
// is the index of the first empty slot on the chain (or -1) and
// lastBucket is the chain's tail.
func (s *Store) probe(ctx *cluster.Ctx, sc *scratch, b int64, tag uint8, key []byte) (idx int64, ent uint64, found bool, firstFree int64, lastBucket int64) {
	firstFree = -1
	for {
		base := s.bucketBase(b)
		s.entries.GetRange(ctx, base, sc.bkt[:])
		for e, cand := range sc.bkt[:entriesPerBkt] {
			if cand == 0 {
				if firstFree < 0 {
					firstFree = base + int64(e)
				}
				continue
			}
			t, size, off := unpackEntry(cand)
			if t == tag && s.holds(ctx, sc, off, size, key) {
				return base + int64(e), cand, true, firstFree, b
			}
		}
		next := sc.bkt[entriesPerBkt]
		if next == 0 {
			return 0, 0, false, firstFree, b
		}
		b = int64(next - 1) // stored as bucket+1 so 0 means "none"
	}
}

// setEntry writes one word of the entry array.
func (s *Store) setEntry(ctx *cluster.Ctx, sc *scratch, idx int64, v uint64) {
	sc.bkt[0] = v
	s.entries.SetRange(ctx, idx, sc.bkt[:1])
}

// Get returns the value stored under key (paper Figure 11's flow: hash,
// probe entries under the reader lock, follow the overflow pointer). The
// lock covers the reads only: the value is decoded from the private copy
// after it is released.
func (s *Store) Get(ctx *cluster.Ctx, key []byte) ([]byte, error) {
	b, tag := s.hashKey(key)
	lockIdx := s.bucketBase(b)
	sc := s.scratch.Get().(*scratch)
	defer s.scratch.Put(sc)
	s.entries.RLock(ctx, lockIdx)
	_, _, found, _, _ := s.probe(ctx, sc, b, tag, key)
	s.entries.Unlock(ctx, lockIdx)
	if !found {
		return nil, ErrNotFound
	}
	return decodeVal(sc.rec), nil
}

// Put inserts or replaces key's value. The record is written whole
// before the bucket is locked: nothing points at it yet.
func (s *Store) Put(ctx *cluster.Ctx, key, val []byte) error {
	words := kvWords(len(key), len(val))
	if words > maxKVWords {
		return errors.New("kvs: key-value pair too large")
	}
	off, err := s.slab.Alloc(words)
	if err != nil {
		return err
	}
	sc := s.scratch.Get().(*scratch)
	defer s.scratch.Put(sc)
	s.bytes.SetRange(ctx, off, encode(sc.record(words), key, val))

	b, tag := s.hashKey(key)
	lockIdx := s.bucketBase(b)
	ent := packEntry(tag, words, off)
	s.entries.WLock(ctx, lockIdx)
	idx, old, found, firstFree, lastBucket := s.probe(ctx, sc, b, tag, key)
	switch {
	case found:
		s.setEntry(ctx, sc, idx, ent)
		s.entries.Unlock(ctx, lockIdx)
		_, oldWords, oldOff := unpackEntry(old)
		s.freeKV(oldOff, oldWords)
		return nil
	case firstFree >= 0:
		s.setEntry(ctx, sc, firstFree, ent)
		s.entries.Unlock(ctx, lockIdx)
		return nil
	default:
		// Chain a fresh overflow bucket onto the tail.
		nb, err := s.allocOverflow()
		if err != nil {
			s.entries.Unlock(ctx, lockIdx)
			s.freeKV(off, words)
			return err
		}
		s.setEntry(ctx, sc, s.bucketBase(nb), ent)
		s.setEntry(ctx, sc, s.bucketBase(lastBucket)+entriesPerBkt, uint64(nb+1))
		s.entries.Unlock(ctx, lockIdx)
		return nil
	}
}

// Delete removes key.
func (s *Store) Delete(ctx *cluster.Ctx, key []byte) error {
	b, tag := s.hashKey(key)
	lockIdx := s.bucketBase(b)
	sc := s.scratch.Get().(*scratch)
	defer s.scratch.Put(sc)
	s.entries.WLock(ctx, lockIdx)
	idx, ent, found, _, _ := s.probe(ctx, sc, b, tag, key)
	if !found {
		s.entries.Unlock(ctx, lockIdx)
		return ErrNotFound
	}
	s.setEntry(ctx, sc, idx, 0)
	s.entries.Unlock(ctx, lockIdx)
	_, words, off := unpackEntry(ent)
	s.freeKV(off, words)
	return nil
}

// freeKV returns a KV chunk to its owning node's slab. Chunks allocated
// by other nodes are leaked by design: Memcached-style slabs are
// node-local, and cross-node frees would need a message we account as
// deferred reclamation (the paper's KVS does not evaluate deletes).
func (s *Store) freeKV(off, words int64) {
	lo, hi := s.bytes.LocalRange()
	if off >= lo && off < hi {
		s.slab.Free(off, words)
	}
}

// allocOverflow hands out an overflow bucket from this node's share.
func (s *Store) allocOverflow() (int64, error) {
	c := s.node.Cluster()
	share := (s.oflowLimit - s.oflowBase) / int64(c.Nodes())
	end := s.oflowBase + int64(s.node.ID()+1)*share
	s.oflowMu.Lock()
	defer s.oflowMu.Unlock()
	if s.oflowNext >= end {
		return 0, errors.New("kvs: overflow buckets exhausted")
	}
	nb := s.oflowNext
	s.oflowNext++
	return nb, nil
}
