package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"twodcache"
	"twodcache/internal/pcache"
)

// spec is one workload. Every workload is closed loop: each worker
// issues its next call only after the previous one returns, so the
// in-flight depth is the worker count.
type spec struct {
	name       string
	lines      int           // working set, in lines
	workers    int           // closed-loop goroutines
	conns      int           // client connections (wire-single)
	batch      int           // ops per call; 0 = single-op calls
	writeFrac  float64       // share of calls that write
	silentFrac float64       // share of writes that store the line's current value
	faultEvery uint64        // ops between injected fault events; 0 = none
	scrub      time.Duration // per-shard scrub interval; 0 = library default (50 ms)
	replicas   int           // 0 = in-process store; else NetServers on loopback
}

// workloads: README.md gives the reasons in full.
var workloads = []*spec{
	// Coding, pcache, engine and a 2 ms scrub do all the work and the
	// wire none; 768 lines fit the 1024-line cache. Silent writes and
	// faults are here so silent-write elision and scrub-budget changes
	// show, and so a faster path must still recover.
	{
		name:       "store-local",
		lines:      768,
		workers:    2,
		writeFrac:  0.3,
		silentFrac: 0.25,
		faultEvery: 4000,
		scrub:      2 * time.Millisecond,
	},
	// Per-request framing, client flushes, server re-grouping and the
	// pcache miss path (4096 lines, 4x the cache). The 50 ms default
	// scrub keeps 2 ms timer jitter out of the wire figures.
	{
		name:      "wire-single",
		lines:     4096,
		workers:   16,
		conns:     2,
		writeFrac: 0.3,
		replicas:  1,
	},
	// Cluster fan-out, stripe locks and the batch path; bypasses the
	// single-op client path, so a change there must not show here.
	{
		name:      "cluster-batch",
		lines:     4096,
		workers:   4,
		batch:     32,
		writeFrac: 0.3,
		replicas:  2,
	},
}

func workloadByName(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// worker is one closed-loop client with a private shadow of the lines
// it owns: lines [base, base+n) of the working set.
type worker struct {
	id, base, n int
	gen         *opGen
	shadow      []byte   // n lines
	valid       []bool   // shadow holds the line's value
	epochs      []uint64 // loss epoch sampled before the value was written

	tally
	done  atomic.Uint64 // tally.ops, readable while the window runs
	lat   lat           // latencies of the current slice
	slice int           // the slice lat belongs to
}

// lat is the caller-observed latency per call of one slice.
type lat struct{ reads, writes hist }

// tally is what one worker saw during one window.
type tally struct {
	ops, failed       uint64 // failed: ops that returned an error (DUE, bounded abort)
	silent, accounted uint64 // read mismatches: unexplained / explained by a loss epoch
	callTime, genTime time.Duration

	// traced runs only: cluster calls that fanned out to replicas, and
	// their time beyond the slowest replica call.
	fanoutCalls uint64
	fanoutSelf  time.Duration
}

func (t *tally) add(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.silent += o.silent
	t.accounted += o.accounted
	t.callTime += o.callTime
	t.genTime += o.genTime
	t.fanoutCalls += o.fanoutCalls
	t.fanoutSelf += o.fanoutSelf
}

// finishCall closes a traced call's span and books its fan-out self
// time: the call's duration beyond its slowest replica call.
func (w *worker) finishCall(tr *tracer, c *call, t0 time.Time) {
	d := tr.finish(c, "bench.call", t0)
	if c.children.Load() > 0 {
		w.fanoutCalls++
		w.fanoutSelf += d - time.Duration(c.maxChild.Load())
	}
}

func (w *worker) line(l int) []byte { return w.shadow[l*lineBytes : (l+1)*lineBytes] }

func addrOf(globalLine int) uint64 { return uint64(globalLine) * lineBytes }

// session is a built stack with its workers.
type session struct {
	sp      *spec
	stk     *stack
	tr      *tracer
	workers []*worker
	inj     *injector

	unrepaired int // bank arrays the final check found dirty

	// Per-slice latencies of the running window: workers move their
	// own lat into lats[sliceIdx] when the slice changes.
	sliceIdx atomic.Int64
	latMu    sync.Mutex
	lats     []lat
}

// tick books one completed call: it publishes the op count and hands
// the worker's latencies to the slice they belong to once the window
// has moved on.
func (r *session) tick(w *worker) {
	w.done.Store(w.ops)
	if s := int(r.sliceIdx.Load()); s != w.slice {
		r.flushLat(w)
		w.slice = s
	}
}

func (r *session) flushLat(w *worker) {
	r.latMu.Lock()
	r.lats[w.slice].reads.merge(&w.lat.reads)
	r.lats[w.slice].writes.merge(&w.lat.writes)
	r.latMu.Unlock()
	w.lat = lat{}
}

// setUp builds the stack, dials it, writes every line of the working
// set through the stack (so the timed window starts warm), and starts
// the background scrubbers.
func setUp(sp *spec, seed int64, tr *tracer) (*session, error) {
	stk, err := build(sp, seed, tr)
	if err != nil {
		return nil, err
	}
	r := &session{sp: sp, stk: stk, tr: tr}
	per := sp.lines / sp.workers
	for i := 0; i < sp.workers; i++ {
		w := &worker{
			id: i, base: i * per, n: per,
			gen:    newOpGen(seed, i, per, sp.writeFrac, sp.silentFrac),
			shadow: make([]byte, per*lineBytes),
			valid:  make([]bool, per),
			epochs: make([]uint64, per),
		}
		for l := 0; l < per; l++ {
			fillLine(w.line(l), initVal(seed, w.base+l))
		}
		r.workers = append(r.workers, w)
	}
	// Every worker writes its own lines, all workers at once, the way
	// the workload will drive the stack.
	errs := make([]error, len(r.workers))
	var wg sync.WaitGroup
	for i, w := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.prefill(w)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		stk.close()
		return nil, err
	}
	for _, st := range stk.stores {
		st.Start()
	}
	if sp.faultEvery > 0 {
		r.inj = newInjector(seed, sp.faultEvery, stk.stores[0])
	}
	return r, nil
}

// sliceLen is the length of the slices a window is cut into; rates are
// reported as the median over slices, so a burst of outside load on the
// shared host moves a few slices, not the result.
const sliceLen = time.Second

// slice is the work completed in one slice of a window.
type slice struct {
	ops         uint64
	wall, cpu   time.Duration
	steal       float64    // share of the host's CPU time stolen by the hypervisor
	read, write [2]float64 // p50 and p90 call latency in ns; 0 without such calls
}

// percentiles returns h's p50 and p90, or zeros for an empty histogram.
func percentiles(h *hist) [2]float64 {
	if h.n == 0 {
		return [2]float64{}
	}
	return [2]float64{h.quantile(0.50), h.quantile(0.90)}
}

// prefill writes worker w's lines in 32-op batches and marks them
// verified.
func (r *session) prefill(w *worker) error {
	ops := make([]pcache.WriteOp, 0, 32)
	for l := 0; l < w.n; l++ {
		w.epochs[l] = r.stk.epoch(addrOf(w.base + l))
		ops = append(ops, pcache.WriteOp{Addr: addrOf(w.base + l), Data: w.line(l)})
		if len(ops) < cap(ops) && l < w.n-1 {
			continue
		}
		if err := r.stk.writeBatch(context.Background(), w.id, ops); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		for _, o := range ops {
			if o.Err != nil {
				return fmt.Errorf("prefill %#x: %w", o.Addr, o.Err)
			}
		}
		ops = ops[:0]
	}
	for l := range w.valid {
		w.valid[l] = true
	}
	return nil
}

// window runs every worker for d and returns the merged tally, the
// wall time from start until the last worker returned, and the
// per-slice work.
func (r *session) window(d time.Duration) (tally, time.Duration, []slice) {
	n := int((d + sliceLen - 1) / sliceLen)
	r.lats = make([]lat, n+1) // the extra slot takes calls that end after the window
	r.sliceIdx.Store(0)
	for _, w := range r.workers {
		w.tally = tally{}
		w.done.Store(0)
		w.lat, w.slice = lat{}, 0
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.sp.batch > 0 {
				r.batchLoop(w, &stop)
			} else {
				r.singleLoop(w, &stop)
			}
			r.flushLat(w)
		}()
	}
	var slices []slice
	prevT, prevCPU, prevOps := start, cpuTime(), uint64(0)
	prevSteal, prevTicks := cpuTicks()
	for end := start.Add(d); ; {
		next := prevT.Add(sliceLen)
		if next.After(end) {
			next = end
		}
		time.Sleep(time.Until(next))
		now, cpu, ops := time.Now(), cpuTime(), uint64(0)
		for _, w := range r.workers {
			ops += w.done.Load()
		}
		i := len(slices)
		r.sliceIdx.Store(int64(i + 1))
		slices = append(slices, slice{ops: ops - prevOps, wall: now.Sub(prevT), cpu: cpu - prevCPU,
			steal: stealShare(prevSteal, prevTicks)})
		prevT, prevCPU, prevOps = now, cpu, ops
		prevSteal, prevTicks = cpuTicks()
		if !now.Before(end) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)
	for i := range slices {
		slices[i].read = percentiles(&r.lats[i].reads)
		slices[i].write = percentiles(&r.lats[i].writes)
	}
	r.lats = nil
	var sum tally
	for _, w := range r.workers {
		sum.add(&w.tally)
	}
	return sum, wall, slices
}

// check classifies a read of worker-local line l against the shadow.
func (r *session) check(w *worker, l int, got []byte) {
	if !w.valid[l] || bytes.Equal(got, w.line(l)) {
		return
	}
	if r.stk.epoch(addrOf(w.base+l)) > w.epochs[l] {
		w.accounted++
		w.valid[l] = false
		return
	}
	w.silent++
}

func (r *session) singleLoop(w *worker, stop *atomic.Bool) {
	ctx := context.Background()
	buf := make([]byte, lineBytes)
	last := time.Now()
	for !stop.Load() {
		o := w.gen.next()
		addr := addrOf(w.base + o.line)
		var c *call
		if r.tr != nil {
			ctx, c = r.tr.begin()
		}
		var err error
		var t0, t1 time.Time
		if o.write {
			if o.silent {
				copy(buf, w.line(o.line))
			} else {
				fillLine(buf, o.val)
			}
			e0 := r.stk.epoch(addr)
			t0 = time.Now()
			err = r.stk.writeOne(ctx, w.id, addr, buf)
			t1 = time.Now()
			w.lat.writes.record(t1.Sub(t0))
			if err == nil {
				copy(w.line(o.line), buf)
				w.valid[o.line] = true
				w.epochs[o.line] = e0
			}
		} else {
			t0 = time.Now()
			err = r.stk.readOne(ctx, w.id, addr, buf)
			t1 = time.Now()
			w.lat.reads.record(t1.Sub(t0))
			if err == nil {
				r.check(w, o.line, buf)
			}
		}
		if c != nil {
			w.finishCall(r.tr, c, t0)
		}
		if err != nil {
			w.failed++
			w.valid[o.line] = false
		}
		w.ops++
		r.tick(w)
		w.callTime += t1.Sub(t0)
		w.genTime += t0.Sub(last)
		last = t1
		if r.inj != nil {
			r.inj.tick()
		}
	}
}

func (r *session) batchLoop(w *worker, stop *atomic.Bool) {
	k := r.sp.batch
	ctx := context.Background()
	lines := make([]int, k)
	vals := make([]uint64, k)
	epochs := make([]uint64, k)
	bufs := make([]byte, k*lineBytes)
	rops := make([]pcache.ReadOp, k)
	wops := make([]pcache.WriteOp, k)
	last := time.Now()
	for !stop.Load() {
		write := w.gen.frame(lines, vals)
		var c *call
		if r.tr != nil {
			ctx, c = r.tr.begin()
		}
		var err error
		var t0, t1 time.Time
		if write {
			for j, l := range lines {
				b := bufs[j*lineBytes : (j+1)*lineBytes]
				fillLine(b, vals[j])
				epochs[j] = r.stk.epoch(addrOf(w.base + l))
				wops[j] = pcache.WriteOp{Addr: addrOf(w.base + l), Data: b}
			}
			t0 = time.Now()
			err = r.stk.writeBatch(ctx, w.id, wops)
			t1 = time.Now()
			w.lat.writes.record(t1.Sub(t0))
			for j, l := range lines {
				if err == nil && wops[j].Err == nil {
					copy(w.line(l), wops[j].Data)
					w.valid[l] = true
					w.epochs[l] = epochs[j]
				} else {
					w.failed++
					w.valid[l] = false
				}
			}
		} else {
			for j, l := range lines {
				rops[j] = pcache.ReadOp{Addr: addrOf(w.base + l), Dst: bufs[j*lineBytes : (j+1)*lineBytes]}
			}
			t0 = time.Now()
			err = r.stk.readBatch(ctx, w.id, rops)
			t1 = time.Now()
			w.lat.reads.record(t1.Sub(t0))
			for j, l := range lines {
				if err == nil && rops[j].Err == nil {
					r.check(w, l, rops[j].Dst)
				} else {
					w.failed++
					w.valid[l] = false
				}
			}
		}
		if c != nil {
			w.finishCall(r.tr, c, t0)
		}
		w.ops += uint64(k)
		r.tick(w)
		w.callTime += t1.Sub(t0)
		w.genTime += t0.Sub(last)
		last = t1
	}
}

func (r *session) stopScrubbers() {
	for _, st := range r.stk.stores {
		st.Stop()
	}
}

// finalCheck stops background work, runs one last scrub sweep on every
// shard, and verifies (1) every bank array audits clean, so each
// injected fault ended recovered or reported, and (2) every line of
// every store (every replica) holds the value its owner last wrote.
// It returns the number of dirty arrays and of silently wrong lines.
func (r *session) finalCheck(log io.Writer) (dirtyArrays, wrongLines int) {
	r.stopScrubbers()
	for _, st := range r.stk.stores {
		for i := 0; i < st.NumShards(); i++ {
			e := st.Shard(i)
			e.NewScrubber(twodcache.ScrubberConfig{}).Sweep()
			c := e.Cache()
			for b := 0; b < c.NumBanks(); b++ {
				data, tags := c.BankArrays(b)
				if !data.VerifyIntegrity().Clean() || !tags.VerifyIntegrity().Clean() {
					dirtyArrays++
					fmt.Fprintf(log, "perfbench: shard %d bank %d not clean after the final sweep\n", i, b)
				}
			}
		}
		ops := make([]pcache.ReadOp, 1)
		dst := make([]byte, lineBytes)
		for _, w := range r.workers {
			for l := 0; l < w.n; l++ {
				ops[0] = pcache.ReadOp{Addr: addrOf(w.base + l), Dst: dst}
				st.ReadBatch(ops)
				if !w.valid[l] || (ops[0].Err == nil && bytes.Equal(dst, w.line(l))) {
					continue
				}
				if r.stk.epoch(ops[0].Addr) > w.epochs[l] {
					continue // accounted loss
				}
				wrongLines++
				fmt.Fprintf(log, "perfbench: line %#x differs from its last acknowledged write (%v)\n", ops[0].Addr, ops[0].Err)
			}
		}
	}
	return dirtyArrays, wrongLines
}
