package netsrv

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"twodcache/internal/bufpool"
	"twodcache/internal/pcache"
)

// Client is a pipelined protocol client, safe for concurrent callers:
// every in-flight request holds its own id, so N goroutines sharing one
// Client keep N requests on the wire at once and responses are
// correlated back by id regardless of arrival order. A burst of
// concurrent callers shares one socket write (see call). Errors decoded
// from the wire unwrap to the same sentinels local store calls return
// (pcache.ErrUncorrectable, resilience.ErrRecoveryInProgress,
// context.DeadlineExceeded), so remote and local failure handling is
// the same code.
type Client struct {
	nc net.Conn

	// wmu serialises appends to and flushes of bw, so concurrent
	// callers interleave whole frames and a burst of them shares one
	// flush (see call). hdr is the wmu-guarded header scratch: frames
	// go into bw as a header plus a payload, so no per-call frame
	// buffer is ever assembled.
	wmu sync.Mutex
	bw  *bufio.Writer
	hdr [frameHeader + frameFixed]byte

	pmu     sync.Mutex
	pending map[uint64]chan wireResp
	nextID  uint64
	closed  bool
	cause   error // first transport failure (nil on deliberate Close)

	done chan struct{}
}

type wireResp struct {
	status  uint8
	payload []byte
}

// respChanPool recycles the per-call response channels. A channel is
// returned to the pool ONLY on the happy receive path: a call abandoned
// at ctx expiry (or client death) may still receive a late send from
// readLoop, so its channel must never be reused.
var respChanPool = sync.Pool{New: func() any { return make(chan wireResp, 1) }}

// Dial connects a Client to a cachenetd-style server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection (ownership transfers: the
// Client closes it).
func NewClient(nc net.Conn) *Client {
	c := &Client{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, readBufSize),
		pending: map[uint64]chan wireResp{},
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.fatal(nil)
	return nil
}

// fatal marks the client dead, fails every waiter, and closes the
// socket. The first cause wins.
func (c *Client) fatal(cause error) {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return
	}
	c.closed = true
	c.cause = cause
	c.pending = map[uint64]chan wireResp{}
	c.pmu.Unlock()
	close(c.done)
	c.nc.Close()
}

// closedErr builds the error in-flight and future calls observe.
func (c *Client) closedErr() error {
	c.pmu.Lock()
	cause := c.cause
	c.pmu.Unlock()
	if cause == nil {
		return ErrClosed
	}
	return fmt.Errorf("%w: %w", ErrClosed, cause)
}

// readLoop dispatches response frames to their waiting callers.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.nc, readBufSize)
	for {
		f, err := readFrame(br)
		if err != nil {
			c.fatal(err)
			return
		}
		if len(f.payload) < 1 {
			c.fatal(fmt.Errorf("netsrv: response frame with no status"))
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[f.id]
		delete(c.pending, f.id)
		c.pmu.Unlock()
		if ok {
			// Buffered(1): never blocks, and an abandoned caller (ctx
			// expired) simply never receives.
			ch <- wireResp{status: f.payload[0], payload: f.payload[1:]}
		}
	}
}

// call sends one request frame and waits for its response under ctx.
// The payload is fully consumed by the time call returns, so callers
// that drew it from bufpool may Put it back immediately after.
func (c *Client) call(ctx context.Context, op uint8, payload []byte) (wireResp, error) {
	if err := ctx.Err(); err != nil {
		return wireResp{}, err
	}
	ch := respChanPool.Get().(chan wireResp)
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		respChanPool.Put(ch)
		return wireResp{}, c.closedErr()
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.pmu.Unlock()

	// Append the frame, yield once so callers readLoop just woke can
	// append theirs, then flush the lot: the first caller back pays one
	// write syscall for the whole burst and the rest find bw empty. No
	// frame is stranded, because only a flush empties bw: every caller
	// flushes after its own append or finds that someone else did.
	// Flush on an empty buffer makes no syscall but still returns an
	// earlier failed flush's sticky error, so every caller whose frame
	// was lost with it fails too.
	c.wmu.Lock()
	bePut32(c.hdr[:], uint32(frameFixed+len(payload)))
	c.hdr[4] = op
	bePut64(c.hdr[5:], id)
	_, werr := c.bw.Write(c.hdr[:])
	if werr == nil && len(payload) > 0 {
		_, werr = c.bw.Write(payload)
	}
	c.wmu.Unlock()
	if werr == nil {
		runtime.Gosched()
		c.wmu.Lock()
		werr = c.bw.Flush()
		c.wmu.Unlock()
	}
	if werr != nil {
		c.fatal(werr)
		return wireResp{}, c.closedErr()
	}

	select {
	case r := <-ch:
		respChanPool.Put(ch)
		return r, nil
	case <-ctx.Done():
		// The channel may still receive a late send — leak it to the GC
		// rather than ever reusing it.
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		return wireResp{}, ctx.Err()
	case <-c.done:
		return wireResp{}, c.closedErr()
	}
}

// wireDeadline converts ctx's deadline to the protocol's relative
// nanoseconds (0 = none). An already-expired deadline fails fast here
// with the context's error — burning a round trip just so the server
// can answer stDeadline would charge a doomed request a full RTT.
// (ctx.Err() can still be nil in the instant after the deadline passes,
// before the context's timer fires; DeadlineExceeded is the answer
// either way.)
func wireDeadline(ctx context.Context) (uint64, error) {
	d, ok := ctx.Deadline()
	if !ok {
		return 0, nil
	}
	rel := time.Until(d)
	if rel <= 0 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 0, context.DeadlineExceeded
	}
	return uint64(rel), nil
}

// Read returns n bytes at addr. Deadline-free reads ride the server's
// batch accumulation.
func (c *Client) Read(addr uint64, n int) ([]byte, error) {
	return c.ReadCtx(context.Background(), addr, n)
}

// ReadCtx is Read bounded by ctx: the deadline travels in the frame and
// maps to the store's ReadCtx on the server.
func (c *Client) ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error) {
	wd, err := wireDeadline(ctx)
	if err != nil {
		return nil, err
	}
	p := bufpool.Get(20)[:0]
	p = be64Append(p, wd)
	p = be64Append(p, addr)
	p = be32Append(p, uint32(n))
	r, err := c.call(ctx, opRead, p)
	bufpool.Put(p)
	if err != nil {
		return nil, err
	}
	if err := statusErr(r.status, string(maybeMsg(r))); err != nil {
		return nil, err
	}
	return r.payload, nil
}

// ReadInto reads len(dst) bytes at addr into dst.
func (c *Client) ReadInto(addr uint64, dst []byte) error {
	out, err := c.Read(addr, len(dst))
	if err != nil {
		return err
	}
	copy(dst, out)
	return nil
}

// Write stores data at addr.
func (c *Client) Write(addr uint64, data []byte) error {
	return c.WriteCtx(context.Background(), addr, data)
}

// WriteCtx is Write bounded by ctx.
func (c *Client) WriteCtx(ctx context.Context, addr uint64, data []byte) error {
	wd, err := wireDeadline(ctx)
	if err != nil {
		return err
	}
	p := bufpool.Get(16 + len(data))[:0]
	p = be64Append(p, wd)
	p = be64Append(p, addr)
	p = append(p, data...)
	r, err := c.call(ctx, opWrite, p)
	bufpool.Put(p)
	if err != nil {
		return err
	}
	return statusErr(r.status, string(maybeMsg(r)))
}

// ReadBatch sends every op in one BATCH_READ frame — one round trip,
// one server-side amortised store call. Per-op outcomes land in each
// op's Err and Dst; failed counts ops whose Err is non-nil. A non-nil
// error is transport-level: no op was served.
func (c *Client) ReadBatch(ops []pcache.ReadOp) (failed int, err error) {
	return c.ReadBatchCtx(context.Background(), ops)
}

// ReadBatchCtx is ReadBatch bounded by ctx on the client side (the
// batch itself rides the server's unbounded amortised path).
func (c *Client) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (failed int, err error) {
	if len(ops) == 0 {
		return 0, nil
	}
	if len(ops) > maxBatchOps {
		return len(ops), fmt.Errorf("netsrv: batch of %d ops exceeds limit %d", len(ops), maxBatchOps)
	}
	wd, err := wireDeadline(ctx)
	if err != nil {
		return len(ops), err
	}
	p := bufpool.Get(12 + len(ops)*12)[:0]
	p = be64Append(p, wd)
	p = be32Append(p, uint32(len(ops)))
	for i := range ops {
		p = be64Append(p, ops[i].Addr)
		p = be32Append(p, uint32(len(ops[i].Dst)))
	}
	r, err := c.call(ctx, opBatchRead, p)
	bufpool.Put(p)
	if err != nil {
		return len(ops), err
	}
	if err := statusErr(r.status, string(maybeMsg(r))); err != nil {
		return len(ops), err
	}
	b := r.payload
	if len(b) < 4 || int(be32(b)) != len(ops) {
		return len(ops), fmt.Errorf("netsrv: BATCH_READ response count mismatch")
	}
	off := 4
	for i := range ops {
		if off+5 > len(b) {
			return len(ops), fmt.Errorf("netsrv: truncated BATCH_READ response")
		}
		st := b[off]
		n := int(be32(b[off+1:]))
		off += 5
		if off+n > len(b) || (st == stOK && n != len(ops[i].Dst)) {
			return len(ops), fmt.Errorf("netsrv: malformed BATCH_READ response")
		}
		ops[i].Err = statusErr(st, "")
		if st == stOK {
			copy(ops[i].Dst, b[off:off+n])
		} else {
			failed++
		}
		off += n
	}
	return failed, nil
}

// WriteBatch sends every op in one BATCH_WRITE frame; see ReadBatch.
func (c *Client) WriteBatch(ops []pcache.WriteOp) (failed int, err error) {
	return c.WriteBatchCtx(context.Background(), ops)
}

// WriteBatchCtx is WriteBatch bounded by ctx on the client side.
func (c *Client) WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) (failed int, err error) {
	if len(ops) == 0 {
		return 0, nil
	}
	if len(ops) > maxBatchOps {
		return len(ops), fmt.Errorf("netsrv: batch of %d ops exceeds limit %d", len(ops), maxBatchOps)
	}
	wd, err := wireDeadline(ctx)
	if err != nil {
		return len(ops), err
	}
	size := 12
	for i := range ops {
		size += 12 + len(ops[i].Data)
	}
	p := bufpool.Get(size)[:0]
	p = be64Append(p, wd)
	p = be32Append(p, uint32(len(ops)))
	for i := range ops {
		p = be64Append(p, ops[i].Addr)
		p = be32Append(p, uint32(len(ops[i].Data)))
		p = append(p, ops[i].Data...)
	}
	r, err := c.call(ctx, opBatchWrite, p)
	bufpool.Put(p)
	if err != nil {
		return len(ops), err
	}
	if err := statusErr(r.status, string(maybeMsg(r))); err != nil {
		return len(ops), err
	}
	b := r.payload
	if len(b) != 4+len(ops) || int(be32(b)) != len(ops) {
		return len(ops), fmt.Errorf("netsrv: BATCH_WRITE response count mismatch")
	}
	for i := range ops {
		ops[i].Err = statusErr(b[4+i], "")
		if ops[i].Err != nil {
			failed++
		}
	}
	return failed, nil
}

// Flush writes back every dirty line on the server.
func (c *Client) Flush() error {
	return c.FlushCtx(context.Background())
}

// FlushCtx is Flush bounded by ctx.
func (c *Client) FlushCtx(ctx context.Context) error {
	wd, err := wireDeadline(ctx)
	if err != nil {
		return err
	}
	p := be64Append(bufpool.Get(8)[:0], wd)
	r, err := c.call(ctx, opFlush, p)
	bufpool.Put(p)
	if err != nil {
		return err
	}
	return statusErr(r.status, string(maybeMsg(r)))
}

// Stats fetches the server store's coherent cache counters.
func (c *Client) Stats() (pcache.Stats, error) {
	r, err := c.call(context.Background(), opStats, nil)
	if err != nil {
		return pcache.Stats{}, err
	}
	if err := statusErr(r.status, string(maybeMsg(r))); err != nil {
		return pcache.Stats{}, err
	}
	return decodeStats(r.payload)
}

// Epoch fetches the loss epoch of the set owning addr — the soak
// oracle's primitive for telling accounted loss from silent corruption.
// Servers without an epoch oracle answer ErrUnsupported.
func (c *Client) Epoch(addr uint64) (uint64, error) {
	p := be64Append(bufpool.Get(8)[:0], addr)
	r, err := c.call(context.Background(), opEpoch, p)
	bufpool.Put(p)
	if err != nil {
		return 0, err
	}
	if err := statusErr(r.status, string(maybeMsg(r))); err != nil {
		return 0, err
	}
	if len(r.payload) != 8 {
		return 0, fmt.Errorf("netsrv: EPOCH response %d bytes", len(r.payload))
	}
	return be64(r.payload), nil
}

// maybeMsg returns the error text carried by non-OK responses (empty
// for stOK, whose payload is data).
func maybeMsg(r wireResp) []byte {
	if r.status == stOK {
		return nil
	}
	return r.payload
}
