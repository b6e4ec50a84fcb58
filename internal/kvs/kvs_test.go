package kvs

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"darray/internal/cluster"
	"darray/internal/ycsb"
)

func tc(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: nodes, ChunkWords: 64, CacheChunks: 256})
	t.Cleanup(c.Close)
	return c
}

func smallCfg() Config { return Config{Buckets: 64, ByteWords: 1 << 17} }

func TestPutGetSingleNode(t *testing.T) {
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, smallCfg())
		ctx := n.NewCtx(0)
		if err := s.Put(ctx, []byte("hello"), []byte("world")); err != nil {
			t.Fatal(err)
		}
		v, err := s.Get(ctx, []byte("hello"))
		if err != nil || string(v) != "world" {
			t.Fatalf("Get = (%q, %v), want world", v, err)
		}
		if _, err := s.Get(ctx, []byte("absent")); err != ErrNotFound {
			t.Fatalf("missing key: err = %v, want ErrNotFound", err)
		}
	})
}

func TestPutReplace(t *testing.T) {
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, smallCfg())
		ctx := n.NewCtx(0)
		k := []byte("key")
		s.Put(ctx, k, []byte("v1"))
		s.Put(ctx, k, []byte("a-considerably-longer-second-value"))
		v, err := s.Get(ctx, k)
		if err != nil || string(v) != "a-considerably-longer-second-value" {
			t.Fatalf("after replace: (%q, %v)", v, err)
		}
	})
}

func TestDelete(t *testing.T) {
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, smallCfg())
		ctx := n.NewCtx(0)
		k := []byte("doomed")
		s.Put(ctx, k, []byte("v"))
		if err := s.Delete(ctx, k); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(ctx, k); err != ErrNotFound {
			t.Fatalf("deleted key still present: %v", err)
		}
		if err := s.Delete(ctx, k); err != ErrNotFound {
			t.Fatalf("double delete: %v, want ErrNotFound", err)
		}
	})
}

func TestOverflowChaining(t *testing.T) {
	// One main bucket forces every key onto one chain (15 entries per
	// bucket, so 100 keys need overflow buckets).
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, Config{Buckets: 1, ByteWords: 1 << 17})
		ctx := n.NewCtx(0)
		const keys = 100
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("key-%03d", i))
			if err := s.Put(ctx, k, []byte(fmt.Sprintf("val-%03d", i))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("key-%03d", i))
			v, err := s.Get(ctx, k)
			if err != nil || string(v) != fmt.Sprintf("val-%03d", i) {
				t.Fatalf("get %d: (%q, %v)", i, v, err)
			}
		}
	})
}

func TestDistributedPutGet(t *testing.T) {
	const nodes, per = 3, 60
	c := tc(t, nodes)
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, Config{Buckets: 256, ByteWords: 3 * (1 << 17)})
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		for i := 0; i < per; i++ {
			k := []byte(fmt.Sprintf("n%d-k%d", n.ID(), i))
			if err := s.Put(ctx, k, []byte(fmt.Sprintf("v%d-%d", n.ID(), i))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		c.Barrier(ctx)
		// Every node reads every other node's keys.
		for v := 0; v < nodes; v++ {
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("n%d-k%d", v, i))
				got, err := s.Get(ctx, k)
				if err != nil || string(got) != fmt.Sprintf("v%d-%d", v, i) {
					t.Fatalf("get %s: (%q, %v)", k, got, err)
				}
			}
		}
		c.Barrier(ctx)
	})
}

func TestConcurrentMixedWorkload(t *testing.T) {
	const nodes = 2
	c := tc(t, nodes)
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, Config{Buckets: 128, ByteWords: 2 << 17})
		root := n.NewCtx(0)
		gen := ycsb.NewGenerator(ycsb.Config{Records: 50, GetRatio: 0, Seed: 1})
		// Preload all records.
		if n.ID() == 0 {
			for r := int64(0); r < 50; r++ {
				if err := s.Put(root, ycsb.Key(r), gen.LoadValue(r)); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.Barrier(root)
		n.RunThreads(3, func(ctx *cluster.Ctx) {
			g := ycsb.NewGenerator(ycsb.Config{
				Records: 50, GetRatio: 0.5,
				Seed: int64(n.ID()*10 + ctx.TID),
			})
			for k := 0; k < 200; k++ {
				op := g.Next()
				switch op.Kind {
				case ycsb.OpGet:
					v, err := s.Get(ctx, op.Key)
					if err != nil {
						t.Errorf("get %s: %v", op.Key, err)
						return
					}
					if !ycsb.ValidValue(ycsb.KeyID(op.Key), v) {
						t.Errorf("get %s returned foreign value", op.Key)
						return
					}
				case ycsb.OpPut:
					if err := s.Put(ctx, op.Key, op.Val); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}
		})
		c.Barrier(root)
	})
}

func TestEntryPackingRoundTrip(t *testing.T) {
	f := func(tag uint8, size uint16, off uint32) bool {
		e := packEntry(tag, int64(size), int64(off))
		t2, s2, o2 := unpackEntry(e)
		return t2 == tag && s2 == int64(size) && o2 == int64(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A store that is dropped is garbage at the next collection. Its scratch
// pool once sat inside the Store, and the runtime's process-wide list of
// pools in use then kept the store — and through its arrays the whole
// cluster — reachable for two collections.
func TestDroppedStoreFreedByOneCollection(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 1, ChunkWords: 64, CacheChunks: 8})
	freed := make(chan struct{})
	c.Run(func(n *cluster.Node) {
		s := NewDArray(n, smallCfg())
		ctx := n.NewCtx(0)
		if err := s.Put(ctx, []byte("k"), []byte("v")); err != nil {
			t.Error(err)
		}
		runtime.SetFinalizer(s, func(*Store) { close(freed) })
	})
	c.Close()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Error("a dropped store survived a collection")
	}
}
