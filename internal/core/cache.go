package core

import (
	"darray/internal/buf"
	"darray/internal/cluster"
	"darray/internal/trace"
)

// cacheLine is one slot of a runtime thread's cache region. Lines are
// backed lazily with refcounted pool buffers, usually by adopting an
// inbound grant.
type cacheLine struct {
	data  []uint64
	ref   *buf.Ref // pool buffer behind data; nil while unbacked
	owner *dentry  // nil when free
}

// Reclamation watermarks (paper §4.2), as fractions of a runtime's cache
// lines: an allocation that finds lowWatermark of them free or fewer
// starts a clock-hand sweep, which evicts until highWatermark are free.
const (
	lowWatermark  = 0.30
	highWatermark = 0.50
)

// rtState is the per-(runtime goroutine, array) state: the runtime's
// independent cache region with its scanning pointer (paper Figure 7),
// the lock tables of this runtime's chunks — locks homed on this node,
// and waiters and leases for locks homed elsewhere — and the event ring
// of what the runtime served (trace.go).
type rtState struct {
	arr           *Array
	rt            *cluster.Runtime
	lines         []*cacheLine
	free          []*cacheLine
	scan          int // scanning pointer for the clock-like reclamation
	lowWM, highWM int
	reclaiming    bool

	locks       map[int64]*lockState // element locks homed here (this runtime)
	lockWaiters map[int64][]*waiter  // local threads awaiting remote grants
	leases      map[int64]*lease     // reader leases held on elements homed elsewhere

	events [traceDepth]event // the recorder's ring (trace.go)
	seq    uint64            // events recorded so far
}

func newRTState(a *Array, rt *cluster.Runtime) *rtState {
	capacity := a.node.Cluster().Config().CacheChunks
	s := &rtState{
		arr:    a,
		rt:     rt,
		lines:  make([]*cacheLine, capacity),
		free:   make([]*cacheLine, 0, capacity),
		lowWM:  int(float64(capacity) * lowWatermark),
		highWM: int(float64(capacity) * highWatermark),
		locks:  make(map[int64]*lockState),

		lockWaiters: make(map[int64][]*waiter),
		leases:      make(map[int64]*lease),
	}
	for i := range s.lines {
		ln := &cacheLine{}
		s.lines[i] = ln
		s.free = append(s.free, ln)
	}
	return s
}

// Detach releases every pooled line backing still held by this state's
// cache region. The cluster calls it (via the Detacher interface)
// during teardown so a cleanly closed cluster ends with zero
// outstanding pool references.
func (s *rtState) Detach() {
	for _, ln := range s.lines {
		if ln.ref != nil {
			ln.ref.Release()
			ln.ref = nil
			ln.data = nil
		}
	}
}

func (a *Array) rstate(rt *cluster.Runtime) *rtState {
	return rt.Attach[a.sh.id].(*rtState)
}

// allocLine pops a free cache line, triggering watermark reclamation.
// It returns nil when no line is currently free (caller must stall).
func (s *rtState) allocLine() *cacheLine {
	if len(s.free) <= s.lowWM && !s.reclaiming {
		s.startReclaim()
	}
	if len(s.free) == 0 {
		if !s.reclaiming {
			s.startReclaim()
		}
		return nil
	}
	ln := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return ln
}

// freeLine returns a line to the free list, dropping any pooled
// backing (a donated buffer was already detached by takeLineData).
func (s *rtState) freeLine(ln *cacheLine) {
	if ln.ref != nil {
		ln.ref.Release()
		ln.ref = nil
		ln.data = nil
	}
	ln.owner = nil
	s.free = append(s.free, ln)
}

// startReclaim scans this runtime's region from the scanning pointer,
// evicting allocated lines whose dentry is idle (not busy, refcnt 0)
// until the free count reaches the high watermark (paper §4.2). Lines
// in an intermediate state or referenced by application threads are
// skipped.
func (s *rtState) startReclaim() {
	s.reclaiming = true
	scanned := 0
	target := s.highWM
	if target < 1 {
		target = 1
	}
	for len(s.free) < target && scanned < len(s.lines) {
		ln := s.lines[s.scan]
		s.scan = (s.scan + 1) % len(s.lines)
		scanned++
		d := ln.owner
		if d == nil || d.busy || d.pending || d.refcnt.Load() != 0 {
			continue
		}
		s.arr.evictLine(s.rt, d)
	}
	s.arr.Metrics.ReclaimSweeps.Add(1)
	s.arr.Metrics.ReclaimScanned.Add(int64(scanned))
	s.reclaiming = false
}

// evictLine evicts the cache line backing d. Caller guarantees d is an
// idle non-home dentry with a resident line. It revokes the permission
// like any other demotion — drain, then publish Invalid — because a
// thread may take a reference (or a Pin, whose accessors trust state)
// between the scan's refcnt check and here; the final steps then run as
// a stalled continuation, and d.busy stays set until done.
func (a *Array) evictLine(rt *cluster.Runtime, d *dentry) {
	a.rstate(rt).record(evEvict, d.ci, -1, d.tvt, trace.Ctx{})
	d.busy = true
	st := d.state.Load()
	if a.tryDemote(d, permInvalid) {
		a.finishEvict(rt, d, st)
		return
	}
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) { a.finishEvict(rt, d, st) })
}

func (a *Array) finishEvict(rt *cluster.Runtime, d *dentry, prevState uint32) {
	// A Shared line evicts silently: stale sharer bits at home are cleaned
	// up by idempotent invalidations. A Dirty or Operated line goes home
	// flagged voluntary, at the eviction's own time, uncharged.
	m := fMsg{to: a.homeOfChunk(d.ci), chunk: d.ci, op: stateOp(prevState), flag: true, vt: d.tvt}
	switch statePerm(prevState) {
	case permRW:
		m.kind = msgWBData
		a.reply(d, &m, permInvalid)
	case permOperated:
		m.kind = msgOpFlush
		a.reply(d, &m, permInvalid)
	}
	a.releaseLine(rt, d)
	d.busy = false
	a.Metrics.Evictions.Add(1)
	a.drainDeferred(rt, d, d.ci)
}
