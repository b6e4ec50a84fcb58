package kvs

import "darray/internal/cluster"

// Stats summarizes the store's occupancy as seen by a full scan of the
// entry array (a management operation, not a fast path).
type Stats struct {
	Buckets         int64 // main buckets
	UsedEntries     int64 // non-empty entries, including overflow chains
	OverflowBuckets int64 // chained buckets in use
	SlabUsedWords   int64 // words carved from this node's slab region
}

// Scan walks every bucket and returns occupancy statistics. Buckets are
// read under their reader locks, so a concurrent workload sees no
// inconsistency (but Scan is O(buckets) and meant for tests/tools).
func (s *Store) Scan(ctx *cluster.Ctx) Stats {
	st := Stats{Buckets: s.nBuckets, SlabUsedWords: s.slab.Used()}
	sc := s.scratch.Get().(*scratch)
	defer s.scratch.Put(sc)
	for b := int64(0); b < s.nBuckets; b++ {
		lockIdx := s.bucketBase(b)
		s.entries.RLock(ctx, lockIdx)
		cur := b
		for {
			s.entries.GetRange(ctx, s.bucketBase(cur), sc.bkt[:])
			for _, ent := range sc.bkt[:entriesPerBkt] {
				if ent != 0 {
					st.UsedEntries++
				}
			}
			next := sc.bkt[entriesPerBkt]
			if next == 0 {
				break
			}
			st.OverflowBuckets++
			cur = int64(next - 1)
		}
		s.entries.Unlock(ctx, lockIdx)
	}
	return st
}
