// Package queue implements the lock-free queues that connect DArray's
// layers (paper §3.1): the local-request queue from application threads
// to the runtime, the RPC-message queue from the comm layer to the
// runtime, and the RDMA-request queue from the runtime to the comm
// layer. All three are multi-producer single-consumer, so we use the
// intrusive Vyukov MPSC algorithm: producers link nodes with one atomic
// exchange, the single consumer pops without atomics on the hot path.
package queue

import (
	"sync"
	"sync/atomic"
)

type node[T any] struct {
	next atomic.Pointer[node[T]]
	val  T
}

// MPSC is an unbounded multi-producer single-consumer queue. Push is
// lock-free and safe from any goroutine; Pop must only be called by one
// consumer goroutine at a time.
// head (hammered by producer Swaps) and tail (advanced by the consumer
// every Pop) live on separate cache lines so producer bursts do not
// steal the consumer's line and vice versa; parked/wake are shared by
// design and stay with the consumer fields.
type MPSC[T any] struct {
	head atomic.Pointer[node[T]] // producers swap here
	_    pad
	tail *node[T] // consumer-owned
	stub node[T]

	// parked is 1 while the consumer is blocked in PopWait; producers
	// that observe the transition signal wake.
	parked atomic.Int32
	wake   chan struct{}

	// nodes recycles dequeued link nodes instead of leaving them to the
	// GC (see NewMPSCPooled).
	nodes sync.Pool
}

// NewMPSCPooled returns an empty queue ready for use. It recycles its
// link nodes through a sync.Pool, avoiding one heap allocation per Push.
// Safe because a vacated node is recycled only by the single consumer,
// after it has observed the node's published successor — at that point
// the producer that swapped the node out of head has finished its only
// write to it, and Push re-initialises next before re-publishing.
func NewMPSCPooled[T any]() *MPSC[T] {
	q := &MPSC[T]{wake: make(chan struct{}, 1)}
	q.nodes.New = func() any { return new(node[T]) }
	q.head.Store(&q.stub)
	q.tail = &q.stub
	return q
}

// Push enqueues v. It never blocks.
func (q *MPSC[T]) Push(v T) {
	n := q.nodes.Get().(*node[T])
	n.next.Store(nil)
	n.val = v
	prev := q.head.Swap(n)
	prev.next.Store(n)
	if q.parked.Load() == 1 && q.parked.CompareAndSwap(1, 0) {
		q.wake <- struct{}{}
	}
}

// Pop dequeues one value without blocking. ok is false when the queue
// is (momentarily) empty.
func (q *MPSC[T]) Pop() (v T, ok bool) {
	tail := q.tail
	next := tail.next.Load()
	if next == nil {
		return v, false
	}
	q.tail = next
	v = next.val
	var zero T
	next.val = zero // drop reference for GC
	if tail != &q.stub {
		q.nodes.Put(tail)
	}
	return v, true
}

// Empty reports whether the queue appears empty to the consumer.
func (q *MPSC[T]) Empty() bool { return q.tail.next.Load() == nil }

// PopWait dequeues one value, parking the consumer goroutine until a
// producer pushes. The stop channel aborts the wait; ok is false only
// when stop fired while the queue stayed empty.
func (q *MPSC[T]) PopWait(stop <-chan struct{}) (v T, ok bool) {
	for {
		if v, ok = q.Pop(); ok {
			return v, true
		}
		q.parked.Store(1)
		// Re-check: a producer may have pushed before seeing parked=1.
		if v, ok = q.Pop(); ok {
			if q.parked.CompareAndSwap(1, 0) {
				return v, true
			}
			// A producer already consumed our parked flag and will
			// signal; drain it so the next PopWait doesn't wake early.
			<-q.wake
			return v, true
		}
		select {
		case <-q.wake:
		case <-stop:
			if q.parked.CompareAndSwap(1, 0) {
				return v, false
			}
			<-q.wake // producer signaled concurrently; drain
			continue // it pushed something: deliver it
		}
	}
}
