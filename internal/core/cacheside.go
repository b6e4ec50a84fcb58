package core

import (
	"darray/internal/cluster"
	"darray/internal/fabric"
	"darray/internal/trace"
)

// ---------------------------------------------------------------------------
// Cache side: a non-home node's view of a chunk.

// cacheRequest queues a local slow-path waiter and sends a request to
// the chunk's home if none is outstanding.
func (a *Array) cacheRequest(rt *cluster.Runtime, d *dentry, w *waiter) {
	d.waiters = append(d.waiters, w)
	if d.pending || d.busy {
		// Demand caught up with an in-flight speculative fill: that fill
		// just became useful.
		if d.pending && d.pf.CompareAndSwap(true, false) {
			a.Metrics.PrefetchHits.Add(1)
		}
		return // outstanding grant or eviction completes first
	}
	a.issueRequest(rt, d)
}

// issueRequest sends the protocol request matching the first waiter's
// need and, for sequential read misses, issues prefetches (paper §4.2:
// prefetch lives in the slow path so it never taxes the fast path).
func (a *Array) issueRequest(rt *cluster.Runtime, d *dentry) {
	w := d.waiters[0]
	home := a.homeOfChunk(d.ci)
	d.pending = true
	var kind uint8
	overwrite := false
	switch wantPerm(w.want) {
	case permRead:
		kind = msgReadReq
	case permRW:
		kind = msgWriteReq
		// A whole-chunk SetRange reads nothing of the old contents: ask
		// for permission only. The flag is decided by this first waiter
		// alone, and handleDataResp installs from the same one.
		overwrite = w.src != nil
	default:
		kind = msgOperateReq
	}
	// The issuing waiter's chain rides the request: the home side and the
	// response decompose its wait, so respond skips its chunk-wait span.
	// Its completion is also the one whose latency is a round trip (see
	// cluster.Resp.Linked).
	w.linked = true
	vt := maxi64(w.vt, d.tvt)
	if w.tc.Valid() && vt > w.vt && a.traceOn() {
		// Time spent parked behind earlier transactions on this chunk
		// (e.g. a grant that arrived and was lost again) before this
		// waiter's own request went out.
		w.tc = a.child(w.tc, a.self(), trace.StageQueue, "chunk-wait", d.ci, w.vt, vt)
		w.vt = vt
	}
	a.send(&fMsg{to: home, kind: kind, chunk: d.ci, op: w.op, flag: overwrite, vt: vt, tc: w.tc})
	if kind == msgReadReq {
		a.prefetch(w.ctx, d.ci, w.vt)
	}
}

// prefetch requests the next few chunks after ci if they are remote and
// absent. The submissions go to the runtimes owning those chunks.
// Speculative issue spends the requesting thread's spare window credit
// (window minus in-flight demand): a busy pipeline gets no prefetch at
// all, so speculation can never queue ahead of demand fetches.
func (a *Array) prefetch(ctx *cluster.Ctx, ci int64, vt int64) {
	ahead := int64(a.node.Cluster().Config().PrefetchAhead)
	issued := int64(0)
	for k := int64(1); k <= ahead; k++ {
		cj := ci + k
		if cj >= a.sh.nChunks {
			return
		}
		dst := a.homeOfChunk(cj)
		if dst == a.self() {
			continue
		}
		if a.spareCredit(ctx, dst) <= issued {
			a.Metrics.PrefetchThrottled.Add(1)
			return // spend at most the spare credit, in order
		}
		dj := &a.dents[cj]
		issued++
		a.rtOf(cj).Submit(func(rt *cluster.Runtime) {
			a.prefetchChunk(rt, dj, vt)
		})
	}
}

// prefetchChunk issues a speculative read request for chunk d if it is
// absent and idle. Runs on d's owning runtime goroutine; both the
// slow-path miss prefetcher and the fast-path sequential detector land
// here, so the dedup against pending/busy/resident is in one place.
func (a *Array) prefetchChunk(rt *cluster.Runtime, d *dentry, vt int64) {
	if d.pending || d.busy || statePerm(d.state.Load()) != permInvalid {
		return
	}
	d.pending = true
	d.pf.Store(true)
	a.Metrics.Prefetches.Add(1)
	a.send(&fMsg{to: a.homeOfChunk(d.ci), kind: msgReadReq, chunk: d.ci,
		vt: maxi64(vt, d.tvt)})
}

// tryLine gives d a backing cache line if it has none, reporting false
// when no line is free right now (reclamation has been started).
func (a *Array) tryLine(rt *cluster.Runtime, d *dentry) bool {
	if d.line != nil {
		return true
	}
	ln := a.rstate(rt).allocLine()
	if ln == nil {
		return false
	}
	ln.owner = d
	d.line = ln
	d.data = ln.data
	return true
}

// withLine runs cont once d has a backing cache line, allocating one
// (and stalling on reclamation) if necessary.
func (a *Array) withLine(rt *cluster.Runtime, d *dentry, cont func(rt *cluster.Runtime)) {
	if a.tryLine(rt, d) {
		cont(rt)
		return
	}
	rt.Stall(func(rt *cluster.Runtime) bool {
		if !a.tryLine(rt, d) {
			return false
		}
		cont(rt)
		return true
	})
}

// handleDataResp installs a granted chunk copy (Read or RW permission)
// and wakes the local waiters. When the grant upgrades a live Shared
// line (the home excludes the requester from invalidation), active
// readers are drained before the line is overwritten.
//
// A flagged grant is payload-free: the request was a whole-chunk
// overwrite, and the words installed are the requesting waiter's own
// source. Either way the line is complete before state is published.
func (a *Array) handleDataResp(rt *cluster.Runtime, d *dentry, m *fabric.Message, svt int64, tc trace.Ctx) {
	words := len(m.Data)
	if m.Flag {
		words = int(a.sh.chunkWords)
	}
	fill := svt + a.copyCost(words)
	a.child(tc, a.self(), trace.StageService, "install", d.ci, svt, fill)
	// The common case needs no wait — nothing references the old line and
	// a line is free — and then builds no continuations.
	if a.tryDemote(d, permInvalid) && a.tryLine(rt, d) {
		a.finishGrant(rt, d, m, fill)
		return
	}
	a.stalledInstall(rt, d, func(rt *cluster.Runtime) { a.finishGrant(rt, d, m, fill) })
}

// stalledInstall runs finish — the installation of a grant that has
// arrived — once nothing references d's old line and a line is free. The
// home counted the grant as delivered when it sent it, so its next
// command for this chunk (a recall or downgrade of the ownership being
// installed, an invalidation of the copy, an op-recall of the combine
// buffer) may arrive, per-QP FIFO, while the installation still waits.
// Judged against the pre-grant state such a command would look stale and
// be dropped or acked for nothing; the chunk is therefore busy for the
// duration, which parks later commands in d.defrd, and they run against
// the installed state when it is done.
func (a *Array) stalledInstall(rt *cluster.Runtime, d *dentry, finish func(rt *cluster.Runtime)) {
	d.busy = true
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) {
		a.withLine(rt, d, func(rt *cluster.Runtime) {
			finish(rt)
			d.busy = false
			a.drainDeferred(rt, d, d.ci)
		})
	})
}

// finishGrant fills d's line from grant m, publishes the granted
// permission and completes the waiters it satisfies — and, when m is a
// writer's lock grant carrying the chunk, the thread waiting for that
// lock, which finds the chunk writable. It owns m (see handleMsg) and
// recycles it.
func (a *Array) finishGrant(rt *cluster.Runtime, d *dentry, m *fabric.Message, fill int64) {
	if m.Flag {
		// d.pending has kept the request's waiter at the head: only a
		// grant removes waiters, and this is the one grant outstanding.
		w := d.waiters[0]
		if w.src == nil {
			panic("core: payload-free grant without an overwrite waiter")
		}
		a.ensureLineData(d) // no inbound payload to adopt
		copy(d.data, w.src)
		w.filled = true
	} else {
		a.installGrant(d, m) // adopts the payload when it can
	}
	perm, retrans := uint32(m.Val), m.RetransNs
	locked, idx := m.Val&grantsLock != 0, m.Idx
	a.recycleMsg(m)
	d.state.Store(perm)
	d.pending = false
	d.tvt = maxi64(d.tvt, fill)
	a.Metrics.Fills.Add(1)
	if locked {
		a.grantWaiter(a.takeLockWaiter(a.rstate(rt), idx), d.tvt)
	}
	// Waiters completed by this grant inherit its go-back-N delay: the
	// congestion controller's loss signal rides the Resp.
	d.retrans = retrans
	a.completeWaiters(rt, d)
	d.retrans = 0
}

// handleOpGrant installs an Operated combine buffer initialized to the
// operator's identity, draining any readers of a prior Shared copy
// first.
func (a *Array) handleOpGrant(rt *cluster.Runtime, d *dentry, m *fabric.Message, svt int64) {
	opid := OpID(m.OpID)
	if a.shipMode == shipAuto {
		// The grant piggybacks the home's shipping hint in Val (0 in off
		// mode, keeping the wire identical to the pre-shipping protocol).
		d.ship.Store(m.Val != 0)
	}
	retrans := m.RetransNs
	a.recycleMsg(m) // this handler owns m; all fields are consumed above
	if a.tryDemote(d, permInvalid) && a.tryLine(rt, d) {
		a.finishOpGrant(rt, d, opid, svt, retrans)
		return
	}
	a.stalledInstall(rt, d, func(rt *cluster.Runtime) { a.finishOpGrant(rt, d, opid, svt, retrans) })
}

func (a *Array) finishOpGrant(rt *cluster.Runtime, d *dentry, opid OpID, svt, retrans int64) {
	a.ensureLineData(d) // no inbound payload to adopt
	id := a.op(opid).Identity
	for i := range d.data {
		d.data[i] = id
	}
	d.state.Store(packState(permOperated, opid))
	d.pending = false
	d.tvt = maxi64(d.tvt, svt)
	d.retrans = retrans
	a.completeWaiters(rt, d)
	d.retrans = 0
}

// completeWaiters responds to every waiter the new state satisfies and
// re-issues a request for the strongest remaining need, if any.
func (a *Array) completeWaiters(rt *cluster.Runtime, d *dentry) {
	st := d.state.Load()
	kept := d.waiters[:0]
	for _, w := range d.waiters {
		if satisfies(st, w.want, w.op) {
			a.respond(rt, d, w, d.tvt)
		} else {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(d.waiters); i++ {
		d.waiters[i] = nil
	}
	d.waiters = kept
	if len(d.waiters) == 0 {
		// The empty slice is kept so the next miss on this chunk appends
		// into retained capacity instead of reallocating.
		return
	}
	if !d.pending && !d.busy {
		a.issueRequest(rt, d)
	}
}

// handleInvalidate drops a Shared copy (home is granting someone
// exclusive or Operated access). Invalidations are idempotent: a line
// already gone (a silent eviction the home never heard of) just acks.
// That is only true of a copy that is really gone — one whose grant has
// arrived and is still being installed is busy, and the invalidation
// waits for it (see stalledInstall).
func (a *Array) handleInvalidate(rt *cluster.Runtime, d *dentry, m *fabric.Message, svt int64, tc trace.Ctx) {
	a.Metrics.Invals.Add(1)
	home := a.homeOfChunk(d.ci)
	if d.busy {
		// Evicting (the line dies anyway: ack once it has) or installing
		// (the copy must exist before it can be dropped).
		d.defrd = append(d.defrd, homeReq{from: m.From, want: defInvalidate, vt: svt, tc: tc})
		return
	}
	if d.line == nil || statePerm(d.state.Load()) != permRead {
		a.send(&fMsg{to: home, kind: msgInvAck, chunk: d.ci, vt: svt, tc: tc})
		return
	}
	d.busy = true
	d.tvt = maxi64(d.tvt, svt)
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) {
		a.releaseLine(rt, d)
		d.busy = false
		a.send(&fMsg{to: home, kind: msgInvAck, chunk: d.ci, vt: d.tvt, tc: tc})
		a.drainDeferred(rt, d, d.ci)
	})
}

// handleDowngrade writes a Dirty chunk back but keeps a Shared copy
// (home is serving another node's read).
func (a *Array) handleDowngrade(rt *cluster.Runtime, d *dentry, svt int64, tc trace.Ctx) {
	home := a.homeOfChunk(d.ci)
	if d.busy {
		d.defrd = append(d.defrd, homeReq{want: defDowngrade, vt: svt, tc: tc})
		return
	}
	if d.line == nil || statePerm(d.state.Load()) != permRW {
		// The ownership left on its own: an eviction's writeback crossed
		// this command on the wire and answers it (handleWBData runs the
		// home's continuation). Not busy rules out the other reading, a
		// grant of that ownership still being installed.
		return
	}
	d.busy = true
	d.tvt = maxi64(d.tvt, svt)
	a.demoteLocal(rt, d, permRead, func(rt *cluster.Runtime) {
		// The line survives as a Shared copy, so the writeback cannot
		// donate its buffer — this path genuinely copies.
		data, pay := a.leasePayload(len(d.data))
		copy(data, d.data)
		a.Metrics.PayloadCopies.Add(1)
		a.Metrics.WriteBacks.Add(1)
		d.busy = false
		cc := a.copyCost(len(data))
		wtc := a.child(tc, a.self(), trace.StageService, "copy-out", d.ci, d.tvt, d.tvt+cc)
		a.send(&fMsg{to: home, kind: msgWBData, chunk: d.ci, data: data, pay: pay,
			vt: d.tvt + cc, tc: wtc})
		a.drainDeferred(rt, d, d.ci)
	})
}

// handleRecall writes a Dirty chunk back and invalidates it.
func (a *Array) handleRecall(rt *cluster.Runtime, d *dentry, svt int64, tc trace.Ctx) {
	home := a.homeOfChunk(d.ci)
	if d.busy {
		d.defrd = append(d.defrd, homeReq{want: defRecall, vt: svt, tc: tc})
		return
	}
	if d.line == nil || statePerm(d.state.Load()) != permRW {
		return // voluntary writeback in flight, as in handleDowngrade
	}
	d.busy = true
	d.tvt = maxi64(d.tvt, svt)
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) {
		// The line dies: its buffer rides the writeback message home.
		data, pay := a.takeLineData(d)
		a.Metrics.WriteBacks.Add(1)
		a.releaseLine(rt, d)
		d.busy = false
		cc := a.copyCost(len(data))
		wtc := a.child(tc, a.self(), trace.StageService, "copy-out", d.ci, d.tvt, d.tvt+cc)
		a.send(&fMsg{to: home, kind: msgWBData, chunk: d.ci, data: data, pay: pay,
			vt: d.tvt + cc, tc: wtc})
		a.drainDeferred(rt, d, d.ci)
	})
}

// handleOpRecall flushes the combined-operand buffer to home and
// invalidates the chunk (home is collapsing the Operated state).
func (a *Array) handleOpRecall(rt *cluster.Runtime, d *dentry, svt int64, tc trace.Ctx) {
	home := a.homeOfChunk(d.ci)
	if d.busy {
		d.defrd = append(d.defrd, homeReq{want: defOpRecall, vt: svt, tc: tc})
		return
	}
	st := d.state.Load()
	if d.line == nil || statePerm(st) != permOperated {
		return // voluntary flush in flight, as in handleDowngrade
	}
	op := stateOp(st)
	d.busy = true
	d.tvt = maxi64(d.tvt, svt)
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) {
		// Like handleRecall: the dying line's buffer becomes the flush
		// payload.
		data, pay := a.takeLineData(d)
		a.Metrics.OpFlushes.Add(1)
		a.releaseLine(rt, d)
		d.busy = false
		cc := a.copyCost(len(data))
		wtc := a.child(tc, a.self(), trace.StageService, "copy-out", d.ci, d.tvt, d.tvt+cc)
		a.send(&fMsg{to: home, kind: msgOpFlush, chunk: d.ci, op: op, data: data, pay: pay,
			vt: d.tvt + cc, tc: wtc})
		a.drainDeferred(rt, d, d.ci)
	})
}

// releaseLine detaches and frees d's cache line. A line dying with its
// prefetch mark still set was filled speculatively and never touched.
func (a *Array) releaseLine(rt *cluster.Runtime, d *dentry) {
	if d.line == nil {
		return
	}
	if d.pf.CompareAndSwap(true, false) {
		a.Metrics.PrefetchWasted.Add(1)
	}
	s := a.rstate(rt)
	s.freeLine(d.line)
	d.line = nil
	d.data = nil
}
