package core

import (
	"fmt"
	"sync"
	"time"

	"darray/internal/cluster"
)

// chunkView is a consistent snapshot of one dentry, taken on the
// runtime goroutine that owns it (so reading the runtime-private fields
// is race-free).
type chunkView struct {
	perm    uint32
	op      OpID
	busy    bool
	pending bool
	queued  int // waiters + deferred
	dstate  uint8
	sharers uint64
	opNodes uint64
	owner   int32
	dop     OpID
}

// snapshotViews captures every chunk's view on this node via its owning
// runtime goroutines.
func (a *Array) snapshotViews() []chunkView {
	views := make([]chunkView, a.sh.nChunks)
	var wg sync.WaitGroup
	for r := 0; r < a.node.Runtimes(); r++ {
		wg.Add(1)
		rt := a.node.Runtime(r)
		r := r
		rt.Submit(func(rt *cluster.Runtime) {
			defer wg.Done()
			for ci := int64(r); ci < a.sh.nChunks; ci += int64(a.node.Runtimes()) {
				d := &a.dents[ci]
				st := d.state.Load()
				views[ci] = chunkView{
					perm:    statePerm(st),
					op:      stateOp(st),
					busy:    d.busy,
					pending: d.pending,
					queued:  len(d.waiters) + len(d.defrd) + len(d.shipQ),
					dstate:  d.dstate,
					sharers: d.sharers,
					opNodes: d.opNodes,
					owner:   d.owner,
					dop:     d.opID,
				}
			}
		})
	}
	wg.Wait()
	return views
}

// lockView is one node's lock tables at a quiescent point: the lessee
// mask of every lock homed here that has one, the elements this node
// holds a lease on, and the first entry found that is not at rest.
type lockView struct {
	lessees map[int64]uint64
	leases  map[int64]bool
	err     error
}

// snapshotLocks captures this node's lock tables via the runtime
// goroutines that own them.
func (a *Array) snapshotLocks() lockView {
	v := lockView{lessees: make(map[int64]uint64), leases: make(map[int64]bool)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < a.node.Runtimes(); r++ {
		wg.Add(1)
		a.node.Runtime(r).Submit(func(rt *cluster.Runtime) {
			defer wg.Done()
			s := a.rstate(rt)
			mu.Lock()
			defer mu.Unlock()
			fail := func(format string, args ...any) {
				if v.err == nil {
					v.err = fmt.Errorf(format, args...)
				}
			}
			for idx, ls := range s.locks {
				if ls.writerHeld || ls.readers != 0 || len(ls.queue) != 0 || ls.recalled != 0 {
					fail("lock %d not at rest: writer %v, %d readers, %d queued, recalling %b",
						idx, ls.writerHeld, ls.readers, len(ls.queue), ls.recalled)
				}
				v.lessees[idx] = ls.lessees
			}
			for idx, q := range s.lockWaiters {
				fail("lock %d: %d threads still await a grant", idx, len(q))
			}
			for idx, le := range s.leases {
				if le.recalled {
					fail("lease %d not at rest: recalled", idx)
				}
				if g := a.gateOf(idx); g == nil || g.word.Load()&gateOpen == 0 {
					fail("lease %d: its gate is not open", idx)
				}
				v.leases[idx] = true
			}
			// Every gate of this runtime's chunks: nobody inside, and open
			// only where the tables above would admit a reader with no
			// message — at the home no writer holds or waits, elsewhere an
			// unrecalled lease is held.
			for ci := int64(rt.Index()); ci < a.sh.nChunks; ci += int64(a.node.Runtimes()) {
				gs := a.dents[ci].gates.Load()
				if gs == nil {
					continue
				}
				atHome := a.homeOfChunk(ci) == a.self()
				for off := range *gs {
					w := (*gs)[off].word.Load()
					idx := ci*a.sh.chunkWords + int64(off)
					if n := gateCount(w); n != 0 {
						fail("gate %d not at rest: %d readers inside", idx, n)
					}
					if w&gateOpen == 0 {
						continue
					}
					if atHome {
						if ls := s.locks[idx]; ls != nil && (ls.writerHeld || len(ls.queue) != 0) {
							fail("gate %d open at its home beside a writer (held %v, %d queued)", idx, ls.writerHeld, len(ls.queue))
						}
					} else if le := s.leases[idx]; le == nil || le.recalled {
						fail("gate %d open on a node without an unrecalled lease", idx)
					}
				}
			}
		})
	}
	wg.Wait()
	return v
}

// validateLocks checks the lock tables and reader gates of every node:
// nothing held, queued, awaited or mid-recall, no reader inside a gate,
// gates open only where the tables admit readers, and each home's lessee
// mask naming exactly the nodes whose lease table has the element.
func validateLocks(insts []*Array) error {
	views := make([]lockView, len(insts))
	for v, a := range insts {
		views[v] = a.snapshotLocks()
		if err := views[v].err; err != nil {
			return fmt.Errorf("node %d: %w", v, err)
		}
	}
	for home, hv := range views {
		for idx, mask := range hv.lessees {
			for v := range insts {
				if mask&(1<<uint(v)) != 0 && !views[v].leases[idx] {
					return fmt.Errorf("lock %d: home %d lists node %d as lessee, which holds no lease", idx, home, v)
				}
			}
		}
	}
	for v, lv := range views {
		for idx := range lv.leases {
			home := insts[v].HomeOf(idx)
			if views[home].lessees[idx]&(1<<uint(v)) == 0 {
				return fmt.Errorf("lock %d: node %d holds a lease its home %d does not list", idx, v, home)
			}
		}
	}
	return nil
}

// ValidateQuiesced checks the cross-node coherence invariants of the
// extended protocol (paper Table 1) for every chunk of the array. It
// must be called when the cluster is quiescent — all application
// threads stopped at a barrier with no requests in flight — typically
// from tests. It returns the first violation found.
//
// Invariants checked, per chunk:
//
//	Unshared: home holds RW; no other node holds any permission.
//	Shared:   home holds Read; every non-home permission is Read, and
//	          every reader is in the home's sharer set.
//	Dirty:    exactly the registered owner holds RW; home holds nothing.
//	Operated: home and the registered operating nodes hold Operated
//	          with the registered operator; nobody holds Read/RW.
//
// and for the element locks (validateLocks): none held or queued, no
// recall pending, every reader gate empty and open only where its node
// may admit a reader with no message, and home lessee masks equal to
// the set of nodes holding the lease.
func ValidateQuiesced(insts []*Array) error {
	if len(insts) == 0 {
		return fmt.Errorf("core: no instances to validate")
	}
	sh := insts[0].sh
	views := make([][]chunkView, len(insts))
	for v, a := range insts {
		if a.sh != sh {
			return fmt.Errorf("core: instances belong to different arrays")
		}
		views[v] = a.snapshotViews()
	}
	for ci := int64(0); ci < sh.nChunks; ci++ {
		home := insts[0].homeOfChunk(ci)
		hv := views[home][ci]
		if hv.busy || hv.queued > 0 {
			return fmt.Errorf("chunk %d: home not quiescent", ci)
		}
		switch hv.dstate {
		case dirUnshared:
			if hv.perm != permRW {
				return fmt.Errorf("chunk %d: Unshared but home perm %d", ci, hv.perm)
			}
			for v := range insts {
				if v != home && views[v][ci].perm != permInvalid {
					return fmt.Errorf("chunk %d: Unshared but node %d holds perm %d",
						ci, v, views[v][ci].perm)
				}
			}
		case dirShared:
			if hv.perm != permRead {
				return fmt.Errorf("chunk %d: Shared but home perm %d", ci, hv.perm)
			}
			for v := range insts {
				if v == home {
					continue
				}
				p := views[v][ci].perm
				if p == permInvalid {
					continue
				}
				if p != permRead {
					return fmt.Errorf("chunk %d: Shared but node %d holds perm %d", ci, v, p)
				}
				if hv.sharers&(1<<uint(v)) == 0 {
					return fmt.Errorf("chunk %d: node %d reads without a sharer bit", ci, v)
				}
			}
		case dirDirty:
			if hv.perm != permInvalid {
				return fmt.Errorf("chunk %d: Dirty but home perm %d", ci, hv.perm)
			}
			owner := int(hv.owner)
			if owner < 0 || owner >= len(insts) || owner == home {
				return fmt.Errorf("chunk %d: Dirty with bad owner %d", ci, owner)
			}
			for v := range insts {
				if v == home {
					continue
				}
				p := views[v][ci].perm
				if v == owner && p != permRW {
					return fmt.Errorf("chunk %d: owner %d holds perm %d, want RW", ci, v, p)
				}
				if v != owner && p != permInvalid {
					return fmt.Errorf("chunk %d: Dirty but non-owner %d holds perm %d", ci, v, p)
				}
			}
		case dirOperated:
			if hv.perm != permOperated || hv.op != hv.dop {
				return fmt.Errorf("chunk %d: Operated(%d) but home perm %d op %d",
					ci, hv.dop, hv.perm, hv.op)
			}
			for v := range insts {
				if v == home {
					continue
				}
				cv := views[v][ci]
				if cv.perm == permInvalid {
					continue // evicted combiner: flush already merged
				}
				if cv.perm != permOperated || cv.op != hv.dop {
					return fmt.Errorf("chunk %d: Operated(%d) but node %d perm %d op %d",
						ci, hv.dop, v, cv.perm, cv.op)
				}
				if hv.opNodes&(1<<uint(v)) == 0 {
					return fmt.Errorf("chunk %d: node %d combines without an opNodes bit", ci, v)
				}
			}
		default:
			return fmt.Errorf("chunk %d: unknown dstate %d", ci, hv.dstate)
		}
	}
	return validateLocks(insts)
}

// Instances returns every node's handle of this array (test support for
// ValidateQuiesced).
func (a *Array) Instances() []*Array {
	out := make([]*Array, len(a.sh.insts))
	copy(out, a.sh.insts)
	return out
}

// AwaitQuiesced retries ValidateQuiesced until it passes, for up to five
// seconds, and returns the last violation if it never does. Threads
// stopped at a barrier are not yet a quiescent cluster: Unlock is
// asynchronous and a barrier is out of band, so the last releases and
// acknowledgements may still be on the wire. Call it from one goroutine
// while no thread is inside an operation.
func AwaitQuiesced(insts []*Array) error {
	var err error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if err = ValidateQuiesced(insts); err == nil {
			return nil
		}
	}
	return err
}
