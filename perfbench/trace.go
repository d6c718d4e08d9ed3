package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"twodcache/internal/cluster"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/store"
	"twodcache/internal/twod"
)

// The traced run installs wrappers at the seams the stack's public
// constructors accept — pcache.Backing, store.Store, net.Listener,
// net.Conn, cluster.Config.Dial and obs.Sink — and records a span
// around every call the benchmark makes into a layer. Spans stay in
// memory and are written out when the run ends; the per-layer metrics
// come from counters kept at the same seams, so they cover every call
// even when the span buffer is full.

// maxSpans bounds the span buffer; later spans are only counted.
const maxSpans = 1 << 16

// span is one timed call at a layer boundary. Req is shared by the
// spans of one benchmark call; a span whose cause cannot be seen from
// its seam (a server-side store call grouping many requests, a backing
// fill) starts its own request.
type span struct {
	id, parent, req uint64
	name            string
	start, end      time.Duration // since the tracer was created
}

// call is the benchmark-side context of one traced call: the span id
// and the slowest replica call it caused (cluster fan-out).
type call struct {
	id       uint64
	children atomic.Int64
	maxChild atomic.Int64 // ns
}

type callKey struct{}

func callFrom(ctx context.Context) *call {
	c, _ := ctx.Value(callKey{}).(*call)
	return c
}

// tracer holds the spans and the per-seam counters of one traced run.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int

	backingReads, backingWrites atomic.Uint64

	storeCalls, storeOps atomic.Uint64
	storeBusy            atomic.Int64 // ns inside store calls

	cliWrites, cliReads, cliBytes atomic.Uint64 // client-side socket calls
	srvWrites, srvReads, srvBytes atomic.Uint64 // server-side socket calls

	replicaCalls atomic.Uint64

	scrubPasses   atomic.Uint64
	scrubBusy     atomic.Int64  // ns of completed scrub passes
	uncorrectable atomic.Uint64 // failed recoveries, in place or escalated
	recMu         sync.Mutex
	recLat        hist // durations of recoveries that repaired words
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1024)}
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// reset drops the spans and zeroes the counters, so a timed window
// starts from nothing. Background work racing the reset may land on
// either side of it.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dropped = t.spans[:0], 0
	t.mu.Unlock()
	t.recMu.Lock()
	t.recLat = hist{}
	t.recMu.Unlock()
	for _, c := range []*atomic.Uint64{
		&t.backingReads, &t.backingWrites, &t.storeCalls, &t.storeOps,
		&t.cliWrites, &t.cliReads, &t.cliBytes, &t.srvWrites, &t.srvReads, &t.srvBytes,
		&t.replicaCalls, &t.scrubPasses, &t.uncorrectable,
	} {
		c.Store(0)
	}
	t.storeBusy.Store(0)
	t.scrubBusy.Store(0)
}

// seamCounts is a plain copy of the tracer's counters.
type seamCounts struct {
	backingReads, backingWrites   uint64
	storeCalls, storeOps          uint64
	storeBusy                     int64
	cliWrites, cliReads, cliBytes uint64
	srvWrites                     uint64
	replicaCalls                  uint64
	scrubPasses, uncorrectable    uint64
	scrubBusy                     int64
	recoveryP50                   float64 // ns
}

// recoveryP50 is the median duration, in ns, of the recoveries that
// repaired a word; 0 if none did.
func (t *tracer) recoveryP50() float64 {
	t.recMu.Lock()
	defer t.recMu.Unlock()
	return t.recLat.quantile(0.5)
}

func (t *tracer) snapshot() seamCounts {
	return seamCounts{
		backingReads: t.backingReads.Load(), backingWrites: t.backingWrites.Load(),
		storeCalls: t.storeCalls.Load(), storeOps: t.storeOps.Load(), storeBusy: t.storeBusy.Load(),
		cliWrites: t.cliWrites.Load(), cliReads: t.cliReads.Load(), cliBytes: t.cliBytes.Load(),
		srvWrites:    t.srvWrites.Load(),
		replicaCalls: t.replicaCalls.Load(),
		scrubPasses:  t.scrubPasses.Load(), uncorrectable: t.uncorrectable.Load(),
		scrubBusy:   t.scrubBusy.Load(),
		recoveryP50: t.recoveryP50(),
	}
}

// begin opens the benchmark-side span of one call and returns the
// context that carries it to the seams below.
func (t *tracer) begin() (context.Context, *call) {
	c := &call{id: t.newID()}
	return context.WithValue(context.Background(), callKey{}, c), c
}

// record stores a span that started at start and ends now, as a child
// of c (nil starts a request of its own), and returns its duration.
func (t *tracer) record(c *call, name string, start time.Time) time.Duration {
	end := time.Now()
	s := span{id: t.newID(), name: name, start: start.Sub(t.t0), end: end.Sub(t.t0)}
	s.req = s.id
	if c != nil {
		s.parent, s.req = c.id, c.id
	}
	t.add(s)
	return end.Sub(start)
}

// finish closes the benchmark-side span of c.
func (t *tracer) finish(c *call, name string, start time.Time) time.Duration {
	end := time.Now()
	t.add(span{id: c.id, req: c.id, name: name, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return end.Sub(start)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// write dumps the spans as JSON lines, followed by extra lines.
func (t *tracer) write(path string, extra []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.req, s.name, int64(s.start), int64(s.end))
	}
	fmt.Fprintf(w, `{"dropped_spans":%d}`+"\n", t.dropped)
	t.mu.Unlock()
	for _, l := range extra {
		fmt.Fprintln(w, l)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- pcache.Backing --------------------------------------------------

type tracedBacking struct {
	pcache.Backing
	t *tracer
}

func (b *tracedBacking) ReadLine(addr uint64) []byte {
	t0 := time.Now()
	d := b.Backing.ReadLine(addr)
	b.t.backingReads.Add(1)
	b.t.record(nil, "backing.read", t0)
	return d
}

func (b *tracedBacking) WriteLine(addr uint64, data []byte) {
	t0 := time.Now()
	b.Backing.WriteLine(addr, data)
	b.t.backingWrites.Add(1)
	b.t.record(nil, "backing.write", t0)
}

// --- store.Store -----------------------------------------------------

// tracedStore times every data-path call; the rest of store.Store is
// forwarded unchanged by embedding.
type tracedStore struct {
	store.Store
	t *tracer
}

func (s *tracedStore) done(c *call, name string, ops int, t0 time.Time) {
	d := s.t.record(c, name, t0)
	s.t.storeCalls.Add(1)
	s.t.storeOps.Add(uint64(ops))
	s.t.storeBusy.Add(int64(d))
}

func (s *tracedStore) Read(addr uint64, n int) ([]byte, error) {
	t0 := time.Now()
	b, err := s.Store.Read(addr, n)
	s.done(nil, "store.read", 1, t0)
	return b, err
}

func (s *tracedStore) ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error) {
	t0 := time.Now()
	b, err := s.Store.ReadCtx(ctx, addr, n)
	s.done(callFrom(ctx), "store.read", 1, t0)
	return b, err
}

func (s *tracedStore) ReadInto(addr uint64, dst []byte) error {
	t0 := time.Now()
	err := s.Store.ReadInto(addr, dst)
	s.done(nil, "store.read", 1, t0)
	return err
}

func (s *tracedStore) ReadIntoCtx(ctx context.Context, addr uint64, dst []byte) error {
	t0 := time.Now()
	err := s.Store.ReadIntoCtx(ctx, addr, dst)
	s.done(callFrom(ctx), "store.read", 1, t0)
	return err
}

func (s *tracedStore) Write(addr uint64, data []byte) error {
	t0 := time.Now()
	err := s.Store.Write(addr, data)
	s.done(nil, "store.write", 1, t0)
	return err
}

func (s *tracedStore) WriteCtx(ctx context.Context, addr uint64, data []byte) error {
	t0 := time.Now()
	err := s.Store.WriteCtx(ctx, addr, data)
	s.done(callFrom(ctx), "store.write", 1, t0)
	return err
}

func (s *tracedStore) ReadBatch(ops []pcache.ReadOp) int {
	t0 := time.Now()
	n := s.Store.ReadBatch(ops)
	s.done(nil, "store.read_batch", len(ops), t0)
	return n
}

func (s *tracedStore) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) int {
	t0 := time.Now()
	n := s.Store.ReadBatchCtx(ctx, ops)
	s.done(callFrom(ctx), "store.read_batch", len(ops), t0)
	return n
}

func (s *tracedStore) WriteBatch(ops []pcache.WriteOp) int {
	t0 := time.Now()
	n := s.Store.WriteBatch(ops)
	s.done(nil, "store.write_batch", len(ops), t0)
	return n
}

func (s *tracedStore) WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) int {
	t0 := time.Now()
	n := s.Store.WriteBatchCtx(ctx, ops)
	s.done(callFrom(ctx), "store.write_batch", len(ops), t0)
	return n
}

// --- net.Conn / net.Listener -----------------------------------------

// countedConn counts socket calls and bytes moved in both directions.
type countedConn struct {
	net.Conn
	writes, reads, bytes *atomic.Uint64
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes.Add(1)
	c.bytes.Add(uint64(n))
	return n, err
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	c.bytes.Add(uint64(n))
	return n, err
}

func (t *tracer) clientConn(nc net.Conn) net.Conn {
	return &countedConn{Conn: nc, writes: &t.cliWrites, reads: &t.cliReads, bytes: &t.cliBytes}
}

type countedListener struct {
	net.Listener
	t *tracer
}

func (l *countedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: nc, writes: &l.t.srvWrites, reads: &l.t.srvReads, bytes: &l.t.srvBytes}, nil
}

// --- cluster.Conn (via cluster.Config.Dial) --------------------------

// tracedReplica times every replica call the cluster client makes and
// reports it to the benchmark call that caused it.
type tracedReplica struct {
	cluster.Conn
	t *tracer
}

func (r *tracedReplica) done(ctx context.Context, name string, t0 time.Time) {
	c := callFrom(ctx)
	d := r.t.record(c, name, t0)
	r.t.replicaCalls.Add(1)
	if c != nil {
		c.children.Add(1)
		for {
			m := c.maxChild.Load()
			if int64(d) <= m || c.maxChild.CompareAndSwap(m, int64(d)) {
				break
			}
		}
	}
}

func (r *tracedReplica) ReadCtx(ctx context.Context, addr uint64, n int) ([]byte, error) {
	t0 := time.Now()
	b, err := r.Conn.ReadCtx(ctx, addr, n)
	r.done(ctx, "replica.read", t0)
	return b, err
}

func (r *tracedReplica) WriteCtx(ctx context.Context, addr uint64, data []byte) error {
	t0 := time.Now()
	err := r.Conn.WriteCtx(ctx, addr, data)
	r.done(ctx, "replica.write", t0)
	return err
}

func (r *tracedReplica) ReadBatchCtx(ctx context.Context, ops []pcache.ReadOp) (int, error) {
	t0 := time.Now()
	n, err := r.Conn.ReadBatchCtx(ctx, ops)
	r.done(ctx, "replica.read_batch", t0)
	return n, err
}

func (r *tracedReplica) WriteBatchCtx(ctx context.Context, ops []pcache.WriteOp) (int, error) {
	t0 := time.Now()
	n, err := r.Conn.WriteBatchCtx(ctx, ops)
	r.done(ctx, "replica.write_batch", t0)
	return n, err
}

// --- obs.Sink --------------------------------------------------------

// traceSink is the engine-level sink: scrub passes, and recovery
// escalations (an access whose fault the array could not repair in
// place).
type traceSink struct {
	obs.NopSink
	t *tracer
}

func (s traceSink) RecoveryEnd(array string, set, way int, success bool, d time.Duration) {
	if !success {
		s.t.uncorrectable.Add(1)
	}
	s.t.record(nil, "escalation."+array, time.Now().Add(-d))
}

func (s traceSink) ScrubPass(banks int, clean bool, victims int, d time.Duration) {
	s.t.scrubPasses.Add(1)
	s.t.scrubBusy.Add(int64(d))
	s.t.record(nil, "scrub.pass", time.Now().Add(-d))
}

// arraySink sits on one bank array and times the 2D recovery runs that
// repaired at least one word (scrub-driven or access-driven); runs over
// a clean array are part of the scrub pass they belong to.
type arraySink struct {
	obs.NopSink
	t      *tracer
	arr    *twod.Array
	before atomic.Uint64 // the array's repaired-word count at RecoveryStart
}

func (s *arraySink) RecoveryStart(string, int, int) {
	s.before.Store(s.arr.Stats().RecoveredWords)
}

func (s *arraySink) RecoveryEnd(array string, set, way int, success bool, d time.Duration) {
	if !success {
		s.t.uncorrectable.Add(1)
	}
	if s.arr.Stats().RecoveredWords == s.before.Load() {
		return
	}
	s.t.recMu.Lock()
	s.t.recLat.record(d)
	s.t.recMu.Unlock()
	s.t.record(nil, "recovery."+array, time.Now().Add(-d))
}

// watchArrays installs an arraySink on every bank array of st.
func (t *tracer) watchArrays(st *store.Sharded) {
	for i := 0; i < st.NumShards(); i++ {
		c := st.Shard(i).Cache()
		for b := 0; b < c.NumBanks(); b++ {
			data, tags := c.BankArrays(b)
			data.SetEventSink(&arraySink{t: t, arr: data}, "data")
			tags.SetEventSink(&arraySink{t: t, arr: tags}, "tags")
		}
	}
}

// recoveredWords is the number of words 2D recovery has repaired in st.
func recoveredWords(st *store.Sharded) uint64 {
	var n uint64
	for i := 0; i < st.NumShards(); i++ {
		c := st.Shard(i).Cache()
		for b := 0; b < c.NumBanks(); b++ {
			data, tags := c.BankArrays(b)
			n += data.Stats().RecoveredWords + tags.Stats().RecoveredWords
		}
	}
	return n
}
