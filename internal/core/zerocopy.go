package core

import (
	"sync"

	"darray/internal/buf"
	"darray/internal/cluster"
	"darray/internal/fabric"
)

// Zero-copy data-path plumbing. Every protocol payload lives in a
// refcounted buf.Ref leased from the cluster's pool, protocol messages
// and slow-path waiters are recycled through sync.Pools, and a chunk
// buffer changes owner instead of being copied wherever the protocol
// transfers ownership:
//
//	lease  — home grants and writebacks fill a pooled buffer (one copy
//	         out of the memory region, as on real hardware)
//	adopt  — a cache installs an inbound grant by taking over its
//	         buffer as the cache line's backing store (no copy)
//	donate — a dying cache line's buffer becomes the outbound
//	         writeback/flush payload (no copy)
//
// Virtual time does not see any of this: the vtime model prices the DMA
// out of (or into) the registered region, which happens on real hardware
// whether or not host memory is recycled. The never-recycling reference
// is the bufdebug build (make bufdebug), which quarantines every
// released buffer and panics on a use after release.

// waiterPool recycles slow-path waiters process-wide.
var waiterPool sync.Pool

func (a *Array) getWaiter() *waiter {
	if v := waiterPool.Get(); v != nil {
		return v.(*waiter)
	}
	return &waiter{}
}

// putWaiter recycles a waiter whose request is done with it; the call
// sites are respond and, for lock-table requests, grantWaiter and
// handleLockLocal.
func (a *Array) putWaiter(w *waiter) {
	*w = waiter{run: w.run}
	waiterPool.Put(w)
}

// submitLocal hands slow-path waiter w for chunk d to the runtime owning
// the chunk, which runs handleLocal on it — or handleLockLocal, when w
// carries a lock-table request.
func (a *Array) submitLocal(d *dentry, w *waiter) {
	w.a, w.d = a, d
	if w.run == nil {
		w.run = func(rt *cluster.Runtime) {
			if w.want >= wantRLock {
				w.a.handleLockLocal(rt, w)
				return
			}
			w.a.handleLocal(rt, w.d, w.d.ci, w)
		}
	}
	a.rtOf(d.ci).Submit(w.run)
}

// recycleMsg returns a fully handled protocol message — and any payload
// reference still attached — to the pools. Handlers that adopt the
// payload clear m.Payload first, so the Release here is a no-op for
// them.
func (a *Array) recycleMsg(m *fabric.Message) {
	m.Payload.Release()
	fabric.FreeMessage(m)
}

// leasePayload leases an n-word outbound payload buffer from the
// cluster pool. The returned ref must be attached to the outbound fMsg,
// transferring ownership to the receiver.
func (a *Array) leasePayload(n int) ([]uint64, *buf.Ref) {
	ref := a.pool.Get(n)
	a.Metrics.Leases.Add(1)
	return ref.Words(), ref
}

// takeLineData surrenders d's cache-line buffer as an outbound payload.
// The caller must be about to release the line (recall, op-recall,
// eviction): ownership of the buffer moves to the message zero-copy.
// A line without a buffer of its own falls back to lease-and-copy.
func (a *Array) takeLineData(d *dentry) ([]uint64, *buf.Ref) {
	if d.line != nil && d.line.ref != nil {
		ref := d.line.ref
		data := d.line.data
		d.line.ref = nil
		d.line.data = nil
		a.Metrics.Donates.Add(1)
		return data, ref
	}
	data, ref := a.leasePayload(len(d.data))
	copy(data, d.data)
	a.Metrics.PayloadCopies.Add(1)
	return data, ref
}

// ensureLineData guarantees d's cache line has backing words, leasing
// them from the pool on first use (lines start empty; they are normally
// backed by adopting an inbound grant). Requires d.line != nil.
func (a *Array) ensureLineData(d *dentry) {
	ln := d.line
	if ln.data != nil {
		d.data = ln.data
		return
	}
	ref := a.pool.Get(int(a.sh.chunkWords))
	a.Metrics.Leases.Add(1)
	ln.ref = ref
	ln.data = ref.Words()
	d.data = ln.data
}

// installGrant installs an inbound msgDataResp payload into d's cache
// line. When the grant arrived in a chunk-sized pool buffer the line
// adopts it outright — the receive path's copy disappears; otherwise
// the words are copied into (possibly freshly leased) line backing.
func (a *Array) installGrant(d *dentry, m *fabric.Message) {
	if m.Payload != nil && int64(len(m.Data)) == a.sh.chunkWords {
		ln := d.line
		if ln.ref != nil {
			ln.ref.Release() // drop the previously adopted backing
		}
		ln.ref = m.Payload
		ln.data = m.Data
		d.data = m.Data
		m.Payload = nil // ownership moved to the line
		a.Metrics.Adopts.Add(1)
		return
	}
	a.ensureLineData(d)
	a.Metrics.PayloadCopies.Add(1)
	copy(d.data, m.Data)
}
