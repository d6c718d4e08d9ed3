package netsrv

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

// countingConn counts the socket writes a Client makes, so a test or
// benchmark can relate write syscalls to the frames sent.
type countingConn struct {
	net.Conn
	writes atomic.Uint64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// dialCounted connects a Client through a countingConn.
func dialCounted(tb testing.TB, addr string) (*Client, *countingConn) {
	tb.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c := NewClient(cc)
	tb.Cleanup(func() { c.Close() })
	return c, cc
}

// TestClientCoalescesConcurrentCalls pins the write-coalescing contract:
// concurrent callers of one Client share socket writes, so a burst of
// frames costs far fewer write syscalls than frames. A Client that
// flushes once per call makes exactly one write per frame.
func TestClientCoalescesConcurrentCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's scheduling says nothing about the syscall count")
	}
	st, _ := newStore(t, 1, resilience.Config{})
	_, addr := startServer(t, st, Config{})
	cl, cc := dialCounted(t, addr)

	const (
		callers = 16
		perCall = 300
	)
	var frames atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(g)}, lineBytes)
			for i := 0; i < perCall; i++ {
				a := uint64(g*8+i%8) * lineBytes
				var err error
				if i%2 == 0 {
					err = cl.Write(a, buf)
				} else {
					_, err = cl.Read(a, lineBytes)
				}
				frames.Add(1)
				if err != nil {
					t.Errorf("caller %d op %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	w, f := cc.writes.Load(), frames.Load()
	t.Logf("%d socket writes for %d frames (%.2f writes/frame)", w, f, float64(w)/float64(f))
	if float64(w) > 0.5*float64(f) {
		t.Fatalf("%d socket writes for %d frames from %d concurrent callers, want <= %d",
			w, f, callers, f/2)
	}
}

// TestClientCoalesceHammer is the -race workout for the yield-then-flush
// path: callers with random think times share one Client and mix single,
// batch, FLUSH and STATS frames. Every call must return well within its
// deadline (a stranded frame would park its caller forever), and every
// result must match the same ops applied to a local store. Each caller
// owns its own lines, so the comparison holds under any interleaving.
func TestClientCoalesceHammer(t *testing.T) {
	remote, remoteBack := newStore(t, 2, resilience.Config{})
	local, localBack := newStore(t, 2, resilience.Config{})
	_, addr := startServer(t, remote, Config{BatchSize: 8})
	cl := dial(t, addr)

	const (
		callers  = 8
		ops      = 250
		linesPer = 16
		stranded = 10 * time.Second
	)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			line := func() uint64 { return uint64(g*linesPer+rng.Intn(linesPer)) * lineBytes }
			randLine := func() []byte {
				b := make([]byte, lineBytes)
				rng.Read(b)
				return b
			}
			for i := 0; i < ops; i++ {
				switch rng.Intn(4) { // think time: none, long, or short
				case 0:
				case 1:
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				default:
					time.Sleep(time.Duration(rng.Intn(5)) * time.Microsecond)
				}
				start := time.Now()
				switch op := rng.Intn(20); {
				case op < 6:
					a, data := line(), randLine()
					rerr, lerr := cl.Write(a, data), local.Write(a, data)
					if rerr != nil || lerr != nil {
						t.Errorf("caller %d op %d: write remote=%v local=%v", g, i, rerr, lerr)
						return
					}
				case op < 12:
					a := line()
					rdata, rerr := cl.Read(a, lineBytes)
					ldata, lerr := local.Read(a, lineBytes)
					if rerr != nil || lerr != nil {
						t.Errorf("caller %d op %d: read remote=%v local=%v", g, i, rerr, lerr)
						return
					}
					if !bytes.Equal(rdata, ldata) {
						t.Errorf("caller %d op %d: read divergence at %#x", g, i, a)
						return
					}
				case op < 15:
					k := 1 + rng.Intn(8)
					rops := make([]pcache.WriteOp, k)
					lops := make([]pcache.WriteOp, k)
					for j := range rops {
						a, data := line(), randLine()
						rops[j] = pcache.WriteOp{Addr: a, Data: data}
						lops[j] = pcache.WriteOp{Addr: a, Data: data}
					}
					rfail, err := cl.WriteBatch(rops)
					if lfail := local.WriteBatch(lops); err != nil || rfail != 0 || lfail != 0 {
						t.Errorf("caller %d op %d: batch write failed remote=%d (%v) local=%d", g, i, rfail, err, lfail)
						return
					}
				case op < 18:
					k := 1 + rng.Intn(8)
					rops := make([]pcache.ReadOp, k)
					lops := make([]pcache.ReadOp, k)
					for j := range rops {
						a := line()
						rops[j] = pcache.ReadOp{Addr: a, Dst: make([]byte, lineBytes)}
						lops[j] = pcache.ReadOp{Addr: a, Dst: make([]byte, lineBytes)}
					}
					rfail, err := cl.ReadBatch(rops)
					if lfail := local.ReadBatch(lops); err != nil || rfail != 0 || lfail != 0 {
						t.Errorf("caller %d op %d: batch read failed remote=%d (%v) local=%d", g, i, rfail, err, lfail)
						return
					}
					for j := range rops {
						if !bytes.Equal(rops[j].Dst, lops[j].Dst) {
							t.Errorf("caller %d op %d[%d]: batch read divergence at %#x", g, i, j, rops[j].Addr)
							return
						}
					}
				case op < 19:
					if err := cl.Flush(); err != nil {
						t.Errorf("caller %d op %d: flush: %v", g, i, err)
						return
					}
				default:
					if _, err := cl.Stats(); err != nil {
						t.Errorf("caller %d op %d: stats: %v", g, i, err)
						return
					}
				}
				if el := time.Since(start); el > stranded {
					t.Errorf("caller %d op %d took %v: frame stranded in the write buffer?", g, i, el)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("callers still parked after 2m: a frame was stranded in the write buffer")
	}
	if t.Failed() {
		return
	}

	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := local.Flush(); err != nil {
		t.Fatal(err)
	}
	for line := 0; line < callers*linesPer; line++ {
		a := uint64(line) * lineBytes
		if r, l := remoteBack.ReadLine(a), localBack.ReadLine(a); !bytes.Equal(r, l) {
			t.Fatalf("backing divergence at line %d: remote %x local %x", line, r, l)
		}
	}
}

// failingConn fails one socket write — the first multi-frame write after
// the warm-up, or a later one if no burst forms — and every write after.
type failingConn struct {
	net.Conn
	frameLen int
	writes   atomic.Int64
	failed   atomic.Bool
	lostLen  atomic.Int64 // bytes in the failed write
}

var errInjected = errors.New("injected write failure")

func (c *failingConn) Write(p []byte) (int, error) {
	n := c.writes.Add(1)
	if c.failed.Load() || (n > 20 && len(p) > c.frameLen) || n > 500 {
		if !c.failed.Swap(true) {
			c.lostLen.Store(int64(len(p)))
		}
		return 0, errInjected
	}
	return c.Conn.Write(p)
}

// TestClientWriteFailureFailsBurst pins the failure half of the
// coalescing contract: when the shared flush fails, every caller whose
// frame rode in it, and every caller still waiting on the dead
// connection, fails with ErrClosed wrapping the cause. No caller hangs
// and no goroutine outlives the Client.
func TestClientWriteFailureFailsBurst(t *testing.T) {
	st, _ := newStore(t, 1, resilience.Config{})
	_, addr := startServer(t, st, Config{})
	baseline := goroutineCount()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Every frame below is a deadline-free READ: header, op, id and a
	// 20-byte payload.
	fc := &failingConn{Conn: nc, frameLen: frameHeader + frameFixed + 20}
	c := NewClient(fc)

	const callers = 16
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			for i := 0; ; i++ {
				if _, err := c.Read(uint64(g*4+i%4)*lineBytes, lineBytes); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < callers; g++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) || !errors.Is(err, errInjected) {
				t.Fatalf("caller error = %v, want ErrClosed wrapping the write failure", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d/%d callers still parked after the write failure", callers-g, callers)
		}
	}
	t.Logf("failed write carried %d bytes (%d frames)", fc.lostLen.Load(), fc.lostLen.Load()/int64(fc.frameLen))
	if _, err := c.Read(0, lineBytes); !errors.Is(err, ErrClosed) || !errors.Is(err, errInjected) {
		t.Fatalf("post-failure Read error = %v, want ErrClosed wrapping the write failure", err)
	}
	c.Close()
	waitGoroutines(t, baseline)
}
