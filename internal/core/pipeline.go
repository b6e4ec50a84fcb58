package core

import (
	"darray/internal/cc"
	"darray/internal/cluster"
	"darray/internal/trace"
)

// Pipelined bulk transfers (BCL-style aggregation, cf. PAPERS.md Brock
// et al.): a bulk range operation keeps multiple chunk acquisitions
// outstanding, so the coherence round trips for chunks i+1..i+K overlap
// the copy of chunk i instead of serializing one RTT per chunk. Each
// in-flight acquisition completes through its own cluster.Token,
// sidestepping the Ctx single-outstanding-request limit.
//
// How many acquisitions stay in flight toward one destination is that
// destination's cc.Controller's decision. Under the default cc.Fixed
// it is the configured PipelineDepth, the static-knob schedule; under
// cc.Adaptive the depth is a ceiling the controller steers below.
// Every multi-chunk range, every ApplyRange and every ApplyAt runs
// through this one ring, shipped Operate runs included: at
// PipelineDepth 1 it is a window of one — issue, await, issue, await.

// chunkReq is one in-flight run of a bulk pipeline: the acquisition of
// chunk ci for the operand positions [k0, k1) of the range, or the
// batched ship-op that carries those operands to the chunk's home.
type chunkReq struct {
	ci     int64
	k0, k1 int64
	d      *dentry
	tok    *cluster.Token // slow-path completion; nil when pin fast-granted

	// pin is the acquired pin, handed to the range's process callback in
	// place. pinned marks it valid at issue (the lock-free fast path
	// granted); otherwise awaitChunk fills it. filled is set at await when
	// the runtime already stored the SetRange source into the chunk. ship
	// marks a run whose chunk is in shipped mode: tok completes when the
	// home has applied its batch, and the run is not processed.
	pin    Pin
	pinned bool
	filled bool
	ship   bool

	// Congestion-control bookkeeping, set by the pipeline when the
	// acquisition went remote: the destination's controller, and the
	// virtual time the request was issued (completionVT - issueVT is the
	// RTT sample).
	ctrl    *cc.Controller
	issueVT int64
}

// bulkRing is one application thread's bulk-range scratch, kept on its
// Ctx across calls: the request ring and the per-destination in-flight
// counts of the range in progress (a thread runs one range at a time).
type bulkRing struct {
	reqs []chunkReq
	infl []int64
}

// ringOf returns ctx's ring, built on first use, sized for slots
// requests and nodes destinations, with the in-flight counts cleared.
func ringOf(ctx *cluster.Ctx, slots, nodes int) *bulkRing {
	br, _ := ctx.Scratch.(*bulkRing)
	if br == nil {
		br = &bulkRing{}
		ctx.Scratch = br
	}
	if cap(br.reqs) < slots {
		br.reqs = make([]chunkReq, slots)
	}
	br.reqs = br.reqs[:slots]
	if cap(br.infl) < nodes {
		br.infl = make([]int64, nodes)
	}
	br.infl = br.infl[:nodes]
	clear(br.infl)
	return br
}

// issueChunkInto starts acquiring a pin on chunk ci without blocking:
// one non-blocking fast-path attempt, then an asynchronous slow-path
// request completing through a token from the ctx freelist. A raised
// delay flag is not spun on — the runtime is mid-transition and the
// slow path will queue behind it. r is caller-provided storage (the
// pipeline reuses a fixed ring of requests instead of allocating one
// per chunk). src, when non-nil, is the SetRange source covering the
// whole chunk: it rides the waiter so a miss can be served by a
// payload-free write grant (see waiter.src).
func (a *Array) issueChunkInto(ctx *cluster.Ctx, r *chunkReq, ci int64, want uint8, op OpID, fn func(acc, operand uint64) uint64, src []uint64, tc trace.Ctx) {
	d := &a.dents[ci]
	*r = chunkReq{ci: ci, d: d}
	if d.enter() {
		if satisfies(d.state.Load(), want, op) {
			a.pinHit(ctx, d, tc)
			r.pin, r.pinned = a.mkPin(d, ci, fn, op), true
			return
		}
		d.refcnt.Add(-1)
	}
	w := a.getWaiter()
	w.want, w.op, w.tc, w.src = want, op, tc, src
	r.tok = a.request(ctx, d, w, 0) // nil once ctx failed; awaitChunk reports it
}

// awaitChunk blocks until r's acquisition completes and returns the pin,
// r.pin (valid until the slot is reissued), or nil when the cluster has
// failed (recorded on ctx). In the rare case that the granted state was
// lost again before the pin could be taken, it falls back to the
// synchronous pin path.
func (a *Array) awaitChunk(ctx *cluster.Ctx, r *chunkReq, want uint8, op OpID, fn func(acc, operand uint64) uint64, tc trace.Ctx) *Pin {
	if r.pinned {
		return &r.pin
	}
	resp, ok := a.await(ctx, r.tok)
	if !ok {
		return nil
	}
	if r.ctrl != nil && resp.Linked {
		// This request went to the home and back, so it is a round trip
		// to feed the destination's controller: the sample carries both
		// the queueing delay (resp.VT - issueVT) and the fabric's
		// go-back-N share (resp.RetransNs). A request that rode an
		// in-flight speculative fill or found the chunk resident is not
		// one — it completes in a fraction of a round trip, and fed as a
		// sample it would drag the controller's RTT floor to nothing and
		// read every honest round trip after it as a standing queue.
		ev := r.ctrl.OnAck(resp.VT, resp.VT-r.issueVT, resp.RetransNs)
		if ev != cc.EvGrow {
			a.Metrics.CCBackoffs.Add(1)
		}
		if a.telOn() {
			a.ccCwnd.Observe(int64(r.ctrl.Window(a.pipeline)))
			a.ccSrtt.Observe(r.ctrl.SrttNs())
		}
	}
	if resp.Val == 1 {
		// The runtime took the reference on our behalf.
		if a.telOn() {
			a.Metrics.PinSlow.Add(1)
		}
		r.pin, r.filled = a.mkPin(r.d, r.ci, fn, op), resp.Filled
		return &r.pin
	}
	if !a.acquire(ctx, &r.pin, r.ci*a.sh.chunkWords, want, op, tc) {
		return nil
	}
	return &r.pin
}

// pipeHook, when non-nil, observes every pipeline issue ('i') and await
// ('a') in program order — test instrumentation locking the issue
// schedule. Set only from single-threaded tests before any bulk call.
var pipeHook func(op byte, ci int64)

// runs is the sequence of runs a pipeline visits: operand positions
// [0, n), where position k is element i+k of a contiguous range, or
// element idx[k] when idx is set (ApplyAt), cut wherever the chunk
// changes.
type runs struct {
	i, n int64
	idx  []int64
}

// at returns the element at operand position k.
func (rs *runs) at(k int64) int64 {
	if rs.idx == nil {
		return rs.i + k
	}
	return rs.idx[k]
}

// runAt returns the chunk of the run that starts at position k and the
// position one past its end: the rest of the chunk for a contiguous
// range, the maximal run of same-chunk entries for idx.
func (a *Array) runAt(rs *runs, k int64) (ci, end int64) {
	cw := a.sh.chunkWords
	if rs.idx == nil {
		ci = (rs.i + k) / cw
		return ci, mini64(rs.n, (ci+1)*cw-rs.i)
	}
	ci, _ = a.locate(rs.idx[k])
	for end = k + 1; end < rs.n; end++ {
		if c, _ := a.locate(rs.idx[end]); c != ci {
			break
		}
	}
	return ci, end
}

// rangePipeline pins the chunk of every run of rs in order, with up to
// a.pipeline acquisitions outstanding and toward each remote home no
// more than its controller's window, calling process with each run's pin
// and operand positions [k0, k1) and then unpinning it. The next runs are
// issued before the current one is processed, so the work overlaps the
// fetches. Stops early (without process) once the cluster fails.
//
// An Operate run on a chunk in shipped mode takes its ring slot with one
// batched ship-op instead of a pin (issueShipInto): it is awaited in
// order like an acquisition, and is not processed — the home applied it.
// Its round trip is not paced by the controller's window.
//
// Ordering rule: the ring holds its slots only in strictly ascending
// chunk order. A run whose chunk does not ascend is issued only once the
// ring has drained. A thread waiting in its ring therefore holds only
// chunks above the one it waits for, and a ship slot, which holds no
// reference, is just such a wait, so no cycle of waits can form
// (PROTOCOL.md, "Pipelines hold pins in ascending order").
//
// src holds the operands: for SetRange the words for the contiguous
// range, whose chunks it covers whole are requested as overwrites, with
// process told (filled) when the runtime already stored them; for an
// Operate the operand of each position, which a shipped run carries.
func (a *Array) rangePipeline(ctx *cluster.Ctx, rs runs, want uint8, op OpID, src []uint64, process func(p *Pin, k0, k1 int64, filled bool), tc trace.Ctx) {
	var fn func(acc, operand uint64) uint64
	if want == wantPinOperate {
		fn = a.op(op).Fn
	}
	// Fixed ring of depth+1 request slots: at most depth acquisitions are
	// outstanding and completions are consumed in issue order, so a slot
	// is reissued only after the run behind it was awaited — by then the
	// slot's pin has been processed.
	depth := int64(a.pipeline)
	slots := depth + 1
	br := ringOf(ctx, int(slots), ctx.Node.Cluster().Nodes())
	reqs := br.reqs
	// infl[dst] counts this range's slow-path acquisitions in flight
	// toward dst; the controller's window caps it per destination.
	infl := br.infl
	cw := a.sh.chunkWords
	self := a.self()
	// The issue cursor: the run [next, end) on chunk ci, found once and
	// kept until it is issued. issued, awaited and done count runs; the
	// ring holds slots while done < issued, the newest on chunk top.
	var next, end, ci, issued, awaited, done int64
	top := int64(-1)
	// blockedVT, when >= 0, is the virtual time since which the window
	// (not the ring) has withheld the next issue — surfaced as a "cc"
	// stage span so the critical-path report separates pacing from wire.
	blockedVT := int64(-1)
	issue := func() {
		for next < rs.n && issued-awaited < depth {
			if end <= next {
				ci, end = a.runAt(&rs, next)
			}
			if done < issued && ci <= top {
				return // ordering rule: drain the ring first
			}
			ship := want == wantPinOperate && a.shipWanted(&a.dents[ci], ci, op)
			dst := a.homeOfChunk(ci)
			var ctrl *cc.Controller
			if dst != self && !ship {
				ctrl = ctx.CC(dst)
				if infl[dst] >= int64(ctrl.Window(a.pipeline)) {
					if blockedVT < 0 {
						blockedVT = ctx.Clock.Now()
					}
					return // window full toward dst; issue stays in order
				}
			}
			if blockedVT >= 0 {
				if tc.Valid() && a.traceOn() {
					a.child(tc, self, trace.StageCC, "cwnd-wait", ci, blockedVT, ctx.Clock.Now())
				}
				blockedVT = -1
			}
			r := &reqs[issued%slots]
			if pipeHook != nil {
				pipeHook('i', ci)
			}
			if ship {
				a.issueShipInto(ctx, r, ci, &rs, next, end, op, src, tc)
			} else {
				var whole []uint64
				if off := ci*cw - rs.i; want == wantPinWrite && off >= 0 && off+cw <= int64(len(src)) {
					whole = src[off : off+cw]
				}
				a.issueChunkInto(ctx, r, ci, want, op, fn, whole, tc)
				if r.tok != nil && ctrl != nil {
					r.ctrl = ctrl
					r.issueVT = ctx.Clock.Now()
					infl[dst]++
				}
			}
			r.k0, r.k1 = next, end
			top = ci
			issued++
			next = end
		}
	}
	issue()
	for done < issued {
		r := &reqs[done%slots]
		if pipeHook != nil {
			pipeHook('a', r.ci)
		}
		var p *Pin
		var ok bool
		if r.ship {
			_, ok = a.await(ctx, r.tok)
		} else {
			ctrl := r.ctrl
			if p = a.awaitChunk(ctx, r, want, op, fn, tc); ctrl != nil {
				infl[a.homeOfChunk(r.ci)]--
			}
			ok = p != nil
		}
		awaited++
		issue()
		if !ok {
			return // cluster failed; remaining tokens die with it
		}
		if !r.ship {
			process(p, r.k0, r.k1, r.filled)
			p.Unpin(ctx)
		}
		if done++; done == issued {
			issue() // the ring has drained: a descending run may go
		}
	}
}

// ---------------------------------------------------------------------------
// Sequential-access detector (fast-path speculative prefetch).

// noteSeq feeds the detector with a fast-path touch of chunk ci. The
// whole state is one packed word (chunk<<8 | streak) updated with a
// single CAS; losing the CAS race means another thread observed an
// access concurrently, and the observation is simply dropped — the
// detector never blocks or retries on the fast path.
func (a *Array) noteSeq(ctx *cluster.Ctx, ci int64) {
	old := a.seq.Load()
	last, streak := old>>8, old&0xff
	if ci == last && streak != 0 {
		return // repeat touch of the same chunk: no new information
	}
	var ns int64
	if ci == last+1 && streak != 0 {
		ns = streak + 1
		if ns > 0xff {
			ns = 0xff
		}
	} else {
		ns = 1
	}
	if !a.seq.CompareAndSwap(old, ci<<8|ns) {
		return // contention: drop silently
	}
	if ns >= 2 {
		a.speculate(ctx, ci+1)
	}
}

// speculate submits a speculative fetch of chunk ci to its owning
// runtime. All checks here are advisory (the runtime dedups again in
// prefetchChunk); the fast path only pays them after the detector has
// already confirmed a streaming pattern.
func (a *Array) speculate(ctx *cluster.Ctx, ci int64) {
	if ci >= a.sh.nChunks {
		return
	}
	dst := a.homeOfChunk(ci)
	if dst == a.self() {
		return
	}
	if a.spareCredit(ctx, dst) < 1 {
		a.Metrics.PrefetchThrottled.Add(1)
		return // demand traffic already owns the window
	}
	d := &a.dents[ci]
	if statePerm(d.state.Load()) != permInvalid {
		return // already resident; in-flight fetches dedup on the runtime
	}
	a.submitPrefetch(d, ctx.Clock.Now())
}

// spareCredit returns how many speculative issues toward dst the
// issuing thread's window has room for beyond its in-flight demand
// requests: window(dst) - demand. Speculative traffic must never queue
// ahead of demand fetches, so prefetch yields to a saturated pipeline
// whatever policy holds the window.
func (a *Array) spareCredit(ctx *cluster.Ctx, dst int) int64 {
	return int64(ctx.CC(dst).Window(a.pipeline)) - ctx.DemandInflight()
}

// notePrefetchHit attributes a fast-path hit to a speculative fill.
// Called under telOn: the common case (no outstanding prefetch mark)
// costs one atomic load.
func (a *Array) notePrefetchHit(d *dentry) {
	if d.pf.Load() && d.pf.CompareAndSwap(true, false) {
		a.Metrics.PrefetchHits.Add(1)
	}
}
