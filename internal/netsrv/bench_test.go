package netsrv

import (
	"context"
	"net"
	"testing"
	"time"

	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
	"twodcache/internal/store"
)

// benchClient stands a 1-shard store + server on loopback and returns a
// connected client. Benchmarks measure the whole in-process round trip,
// so -benchmem totals cover client AND server allocations per op.
func benchClient(b *testing.B) *Client {
	b.Helper()
	c, err := Dial(benchServer(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// benchServer stands a 1-shard store + server on loopback and returns
// its address.
func benchServer(b *testing.B) string {
	b.Helper()
	backing := pcache.NewMapBacking(lineBytes)
	st, err := store.New(store.Config{
		Shards:     1,
		Cache:      pcache.Config{Sets: 64, Ways: 2, LineBytes: lineBytes, Banks: 4},
		Resilience: resilience.Config{},
	}, backing)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(Config{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		cancel()
		<-served
	})
	return l.Addr().String()
}

// BenchmarkNetSingleRead: one deadline-free READ frame per op (the
// server still re-groups the pipeline onto the batch path).
func BenchmarkNetSingleRead(b *testing.B) {
	c := benchClient(b)
	seed := make([]byte, lineBytes)
	for i := range seed {
		seed[i] = byte(i)
	}
	if err := c.Write(0, seed); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, lineBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReadInto(0, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetSingleWrite: one deadline-free WRITE frame per op.
func BenchmarkNetSingleWrite(b *testing.B) {
	c := benchClient(b)
	data := make([]byte, lineBytes)
	for i := range data {
		data[i] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write(uint64(i%16)*lineBytes, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetBatchRead32: one BATCH_READ frame of 32 full-line ops per
// iteration; Dst buffers are caller-owned and reused, so every
// allocation reported is protocol overhead.
func BenchmarkNetBatchRead32(b *testing.B) {
	const batch = 32
	c := benchClient(b)
	data := make([]byte, lineBytes)
	ops := make([]pcache.ReadOp, batch)
	for i := range ops {
		addr := uint64(i) * lineBytes
		if err := c.Write(addr, data); err != nil {
			b.Fatal(err)
		}
		ops[i] = pcache.ReadOp{Addr: addr, Dst: make([]byte, lineBytes)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		failed, err := c.ReadBatch(ops)
		if err != nil || failed != 0 {
			b.Fatalf("failed=%d err=%v", failed, err)
		}
	}
}

// BenchmarkNetBatchWrite32: one BATCH_WRITE frame of 32 full-line ops
// per iteration with caller-owned Data buffers.
func BenchmarkNetBatchWrite32(b *testing.B) {
	const batch = 32
	c := benchClient(b)
	ops := make([]pcache.WriteOp, batch)
	for i := range ops {
		data := make([]byte, lineBytes)
		for j := range data {
			data[j] = byte(i + j)
		}
		ops[i] = pcache.WriteOp{Addr: uint64(i) * lineBytes, Data: data}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		failed, err := c.WriteBatch(ops)
		if err != nil || failed != 0 {
			b.Fatalf("failed=%d err=%v", failed, err)
		}
	}
}

// benchParallel drives op from 8 goroutines per GOMAXPROCS sharing one
// Client, the shape of a pipelined load generator, and reports the
// client's socket writes per op: 1 would mean no two callers ever
// shared a write.
func benchParallel(b *testing.B, op func(c *Client, i int) error) {
	c, cc := dialCounted(b, benchServer(b))
	seed := make([]byte, lineBytes)
	for i := 0; i < 16; i++ {
		if err := c.Write(uint64(i)*lineBytes, seed); err != nil {
			b.Fatal(err)
		}
	}
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	w0 := cc.writes.Load()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if err := op(c, i); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(cc.writes.Load()-w0)/float64(b.N), "writes/op")
}

// BenchmarkNetParallelRead: concurrent deadline-free single READs on one
// Client.
func BenchmarkNetParallelRead(b *testing.B) {
	benchParallel(b, func(c *Client, i int) error {
		_, err := c.Read(uint64(i%16)*lineBytes, lineBytes)
		return err
	})
}

// BenchmarkNetParallelWrite: concurrent deadline-free single WRITEs on
// one Client.
func BenchmarkNetParallelWrite(b *testing.B) {
	data := make([]byte, lineBytes)
	benchParallel(b, func(c *Client, i int) error {
		return c.Write(uint64(i%16)*lineBytes, data)
	})
}
