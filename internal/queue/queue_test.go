package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestMPSCFIFOSingleProducer(t *testing.T) {
	q := NewMPSCPooled[int]()
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = (%d,%v), want (%d,true)", i, v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestMPSCEmpty(t *testing.T) {
	q := NewMPSCPooled[string]()
	if !q.Empty() {
		t.Fatal("new queue not empty")
	}
	q.Push("x")
	if q.Empty() {
		t.Fatal("queue with element reports empty")
	}
	q.Pop()
	if !q.Empty() {
		t.Fatal("drained queue not empty")
	}
}

func TestMPSCMultiProducerNoLoss(t *testing.T) {
	const producers, per = 8, 1000
	q := NewMPSCPooled[int]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(p*per + i)
			}
		}(p)
	}
	done := make(chan struct{})
	seen := make(map[int]bool, producers*per)
	go func() {
		defer close(done)
		lastPer := make([]int, producers) // per-producer FIFO check
		for i := range lastPer {
			lastPer[i] = -1
		}
		for len(seen) < producers*per {
			v, ok := q.Pop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if seen[v] {
				t.Errorf("duplicate value %d", v)
				return
			}
			seen[v] = true
			p, i := v/per, v%per
			if i <= lastPer[p] {
				t.Errorf("producer %d out of order: %d after %d", p, i, lastPer[p])
				return
			}
			lastPer[p] = i
		}
	}()
	wg.Wait()
	<-done
	if len(seen) != producers*per {
		t.Fatalf("received %d values, want %d", len(seen), producers*per)
	}
}

func TestMPSCPopWaitDeliversAfterPark(t *testing.T) {
	q := NewMPSCPooled[int]()
	stop := make(chan struct{})
	got := make(chan int, 1)
	go func() {
		v, ok := q.PopWait(stop)
		if ok {
			got <- v
		}
	}()
	q.Push(42)
	if v := <-got; v != 42 {
		t.Fatalf("PopWait = %d, want 42", v)
	}
}

func TestMPSCPopWaitStop(t *testing.T) {
	q := NewMPSCPooled[int]()
	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		_, ok := q.PopWait(stop)
		done <- ok
	}()
	close(stop)
	if ok := <-done; ok {
		t.Fatal("PopWait should report !ok on stop with empty queue")
	}
}

func TestMPSCPopWaitManyRounds(t *testing.T) {
	q := NewMPSCPooled[int]()
	stop := make(chan struct{})
	const rounds = 2000
	done := make(chan int)
	go func() {
		sum := 0
		for i := 0; i < rounds; i++ {
			v, ok := q.PopWait(stop)
			if !ok {
				break
			}
			sum += v
		}
		done <- sum
	}()
	want := 0
	for i := 1; i <= rounds; i++ {
		q.Push(i)
		want += i
	}
	if got := <-done; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestSPSCBasic(t *testing.T) {
	q := NewSPSC[int](8)
	for i := 0; i < 8; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if q.TryPush(99) {
		t.Fatal("push succeeded on full ring")
	}
	if q.Len() != 8 {
		t.Fatalf("Len = %d, want 8", q.Len())
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop succeeded on empty ring")
	}
}

func TestSPSCBadCapacityPanics(t *testing.T) {
	for _, c := range []int{0, -4, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d: no panic", c)
				}
			}()
			NewSPSC[int](c)
		}()
	}
}

func TestSPSCConcurrentTransfer(t *testing.T) {
	q := NewSPSC[uint64](64)
	const n = 20000
	var sum uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got := 0; got < n; {
			if v, ok := q.TryPop(); ok {
				sum += v
				got++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var want uint64
	for i := uint64(1); i <= n; i++ {
		for !q.TryPush(i) {
			runtime.Gosched()
		}
		want += i
	}
	<-done
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

// Property: any sequence of pushes followed by pops returns the same
// sequence (FIFO) for the single-producer case.
func TestMPSCQuickFIFO(t *testing.T) {
	f := func(vals []int64) bool {
		q := NewMPSCPooled[int64]()
		for _, v := range vals {
			q.Push(v)
		}
		for _, v := range vals {
			got, ok := q.Pop()
			if !ok || got != v {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SPSC preserves FIFO order and capacity bounds.
func TestSPSCQuickFIFO(t *testing.T) {
	f := func(vals []uint32) bool {
		q := NewSPSC[uint32](16)
		i := 0
		for i < len(vals) {
			pushed := 0
			for i < len(vals) && q.TryPush(vals[i]) {
				i++
				pushed++
			}
			if pushed == 0 && q.Len() != 16 {
				return false // push failed on non-full ring
			}
			for j := i - pushed; j < i; j++ {
				got, ok := q.TryPop()
				if !ok || got != vals[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// spscNoPad replicates SPSC without the cache-line padding, so the
// contended benchmarks below measure the padding's effect directly
// (run both and compare: go test -bench 'SPSCContended' ./internal/queue).
type spscNoPad struct {
	buf  []uint64
	mask uint64
	head atomic.Uint64
	tail atomic.Uint64
}

func (q *spscNoPad) TryPush(v uint64) bool {
	t := q.tail.Load()
	if t-q.head.Load() == uint64(len(q.buf)) {
		return false
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	return true
}

func (q *spscNoPad) TryPop() (uint64, bool) {
	h := q.head.Load()
	if h == q.tail.Load() {
		return 0, false
	}
	v := q.buf[h&q.mask]
	q.head.Store(h + 1)
	return v, true
}

// benchSPSCContended streams b.N values through the ring with producer
// and consumer on separate goroutines — the layout where false sharing
// of head/tail shows up.
func benchSPSCContended(b *testing.B, push func(uint64) bool, pop func() (uint64, bool)) {
	done := make(chan uint64, 1)
	n := uint64(b.N)
	b.ResetTimer()
	go func() {
		var sum uint64
		for got := uint64(0); got < n; {
			if v, ok := pop(); ok {
				sum += v
				got++
			}
		}
		done <- sum
	}()
	for i := uint64(0); i < n; i++ {
		for !push(i) {
		}
	}
	<-done
}

func BenchmarkSPSCContendedPadded(b *testing.B) {
	q := NewSPSC[uint64](1024)
	benchSPSCContended(b, q.TryPush, q.TryPop)
}

func BenchmarkSPSCContendedNoPad(b *testing.B) {
	q := &spscNoPad{buf: make([]uint64, 1024), mask: 1023}
	benchSPSCContended(b, q.TryPush, q.TryPop)
}

func BenchmarkMPSCPush(b *testing.B) {
	q := NewMPSCPooled[int]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		if i&1023 == 0 {
			for {
				if _, ok := q.Pop(); !ok {
					break
				}
			}
		}
	}
}

func BenchmarkSPSCPingPong(b *testing.B) {
	q := NewSPSC[int](1024)
	for i := 0; i < b.N; i++ {
		for !q.TryPush(i) {
		}
		if _, ok := q.TryPop(); !ok {
			b.Fatal("lost element")
		}
	}
}
