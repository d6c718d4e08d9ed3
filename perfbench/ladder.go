package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"twodcache"
	"twodcache/internal/bitvec"
	"twodcache/internal/cluster"
	"twodcache/internal/pcache"
)

// The ladder times the same 64 B resident-line read (and write) at each
// layer's public entry point, one goroutine, no background work, on the
// workloads' geometry: ecc word kernel -> twod array -> pcache ->
// resilience engine -> 4-shard store -> netsrv loopback -> 2-replica
// cluster. Each row also reports its tax: its time minus the time of
// the same operation one layer down.

type ladderRow struct {
	name  string
	value float64 // in unit
	unit  string
	tax   float64 // value minus the layer below, in unit; 0 at the bottom
}

// sinkWord keeps timed results observable so no call is optimised away.
var sinkWord uint64

// timeCall returns the median over five repetitions of ns per fn call,
// each repetition sized to run for about 20 ms.
func timeCall(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 2*time.Millisecond {
			n = int(float64(n)*float64(20*time.Millisecond)/float64(d)) + 1
			break
		}
		n *= 4
	}
	reps := make([]float64, 5)
	for r := range reps {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		reps[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(reps)
}

// lineOps is a resident-line workload at one layer: a 64 B read into
// dst, a write of the given payload, and a 32-line read batch.
type lineOps struct {
	read  func(dst []byte) error
	write func(data []byte) error
	batch func(ops []pcache.ReadOp) error
}

// measureLine times one layer and checks that its last read returned
// the last payload written and its batch returned the prefilled lines.
func measureLine(lo lineOps, payloads [2][]byte, batchLines [][]byte) (readNs, writeNs, batchNs float64, err error) {
	dst := make([]byte, lineBytes)
	var callErr error
	note := func(e error) {
		if e != nil && callErr == nil {
			callErr = e
		}
	}
	i := 0
	writeNs = timeCall(func() {
		i++
		note(lo.write(payloads[i&1]))
	})
	readNs = timeCall(func() { note(lo.read(dst)) })
	if callErr == nil && !bytes.Equal(dst, payloads[i&1]) {
		callErr = fmt.Errorf("read returned a value other than the last write")
	}
	if lo.batch != nil {
		ops := make([]pcache.ReadOp, len(batchLines))
		bufs := make([]byte, len(batchLines)*lineBytes)
		for j := range ops {
			ops[j] = pcache.ReadOp{Addr: addrOf(j + 1), Dst: bufs[j*lineBytes : (j+1)*lineBytes]}
		}
		batchNs = timeCall(func() { note(lo.batch(ops)) }) / float64(len(ops))
		for j := range ops {
			if callErr == nil && (ops[j].Err != nil || !bytes.Equal(ops[j].Dst, batchLines[j])) {
				callErr = fmt.Errorf("batch op %d: %v", j, ops[j].Err)
			}
		}
	}
	return readNs, writeNs, batchNs, callErr
}

func ladder(log io.Writer) ([]ladderRow, error) {
	// Resident data: line 0 is the single-op line, lines 1..32 the batch.
	payloads := [2][]byte{make([]byte, lineBytes), make([]byte, lineBytes)}
	fillLine(payloads[0], 0xa5)
	fillLine(payloads[1], 0x5a)
	batchLines := make([][]byte, 32)
	for j := range batchLines {
		batchLines[j] = make([]byte, lineBytes)
		fillLine(batchLines[j], uint64(j+1))
	}
	prefill := func(write func(addr uint64, data []byte) error) error {
		if err := write(addrOf(0), payloads[0]); err != nil {
			return err
		}
		for j, b := range batchLines {
			if err := write(addrOf(j+1), b); err != nil {
				return err
			}
		}
		return nil
	}
	var rows []ladderRow
	add := func(name string, ns float64, unit string, belowNs float64) {
		scale := 1.0
		if unit == "us" {
			scale = 1e-3
		}
		tax := 0.0
		if belowNs > 0 {
			tax = (ns - belowNs) * scale
		}
		rows = append(rows, ladderRow{name: name, value: ns * scale, unit: unit, tax: tax})
	}

	// ecc: the EDC8 check of one (72,64) codeword.
	code, err := twodcache.NewEDC(64, 8)
	if err != nil {
		return nil, err
	}
	cw := bitvec.MakeCodeword(make([]uint64, 2), 72)
	code.EncodeInto(cw, bitvec.MakeCodeword([]uint64{0x0123456789abcdef}, 64))
	eccNs := timeCall(func() {
		r, _ := code.DecodeInPlace(cw)
		sinkWord += uint64(r)
	})
	add("ecc.check_ns_per_word", eccNs, "ns", 0)

	// twod: one line = one row of eight words in a bank's data array
	// (rows = sets per bank x ways).
	arr, err := twodcache.NewArray(twodcache.ArrayConfig{
		Rows: numSets / numBanks * numWays, WordsPerRow: lineBytes / 8,
		Horizontal: code, VerticalGroups: 32,
	})
	if err != nil {
		return nil, err
	}
	const row = 5
	words := [2][lineBytes / 8]uint64{}
	for w := range words[0] {
		words[0][w], words[1][w] = mix(uint64(w)), mix(uint64(w)+100)
	}
	k := 0
	twodW := timeCall(func() {
		k++
		for w, v := range words[k&1] {
			arr.WriteUint64(row, w, v)
		}
	})
	twodR := timeCall(func() {
		for w := range words[0] {
			v, _ := arr.ReadUint64(row, w)
			sinkWord += v
		}
	})
	for w, v := range words[k&1] {
		if got, st := arr.ReadUint64(row, w); got != v || st != twodcache.ReadClean {
			return nil, fmt.Errorf("twod: word %d read %#x (%v), want %#x", w, got, st, v)
		}
	}
	add("twod.read_line_ns", twodR, "ns", 8*eccNs)
	add("twod.write_line_ns", twodW, "ns", 0)

	// pcache, resilience and the sharded store, all in process.
	pc, err := twodcache.NewProtectedCache(cacheConfig(), twodcache.NewMemoryBacking(lineBytes))
	if err != nil {
		return nil, err
	}
	if err := prefill(pc.Write); err != nil {
		return nil, err
	}
	pR, pW, pB, err := measureLine(lineOps{
		read:  func(d []byte) error { return pc.ReadInto(addrOf(0), d) },
		write: func(d []byte) error { return pc.Write(addrOf(0), d) },
		batch: func(ops []pcache.ReadOp) error { pc.ReadBatch(ops); return nil },
	}, payloads, batchLines)
	if err != nil {
		return nil, fmt.Errorf("pcache: %w", err)
	}
	add("pcache.read_ns", pR, "ns", twodR)
	add("pcache.write_ns", pW, "ns", twodW)
	add("pcache.read_batch32_ns_per_op", pB, "ns", 0)

	eng, err := twodcache.NewResilientCache(cacheConfig(), twodcache.NewMemoryBacking(lineBytes), twodcache.ResilienceConfig{SpareRows: 8})
	if err != nil {
		return nil, err
	}
	if err := prefill(eng.Write); err != nil {
		return nil, err
	}
	eR, eW, _, err := measureLine(lineOps{
		read:  func(d []byte) error { return eng.ReadInto(addrOf(0), d) },
		write: func(d []byte) error { return eng.Write(addrOf(0), d) },
	}, payloads, batchLines)
	if err != nil {
		return nil, fmt.Errorf("resilience: %w", err)
	}
	add("resilience.read_ns", eR, "ns", pR)
	add("resilience.write_ns", eW, "ns", pW)

	newSharded := func() (*twodcache.ShardedCache, error) {
		st, err := twodcache.NewShardedCache(twodcache.ShardedCacheConfig{
			Shards: numShards, Cache: cacheConfig(),
			Resilience: twodcache.ResilienceConfig{SpareRows: 8},
		}, twodcache.NewMemoryBacking(lineBytes))
		if err != nil {
			return nil, err
		}
		return st, prefill(st.Write)
	}
	st, err := newSharded()
	if err != nil {
		return nil, err
	}
	sR, _, sB, err := measureLine(lineOps{
		read:  func(d []byte) error { return st.ReadInto(addrOf(0), d) },
		write: func(d []byte) error { return st.Write(addrOf(0), d) },
		batch: func(ops []pcache.ReadOp) error { st.ReadBatch(ops); return nil },
	}, payloads, batchLines)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	add("store.read_ns", sR, "ns", eR)
	add("store.read_batch32_ns_per_op", sB, "ns", pB)

	// netsrv: one client on loopback; the batch row is per 32-op frame.
	var addrs []string
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	for r := 0; r < 2; r++ {
		st, err := newSharded()
		if err != nil {
			return nil, err
		}
		srv, err := twodcache.NewNetServer(twodcache.NetServerConfig{Store: st})
		if err != nil {
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		closers = append(closers, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(log, "perfbench: ladder server shutdown:", err)
			}
			if err := <-done; err != nil {
				fmt.Fprintln(log, "perfbench: ladder serve:", err)
			}
		})
		addrs = append(addrs, l.Addr().String())
	}
	nc, err := twodcache.DialNet(addrs[0])
	if err != nil {
		return nil, err
	}
	closers = append(closers, func() { nc.Close() })
	nR, _, nB, err := measureLine(lineOps{
		read:  func(d []byte) error { return nc.ReadInto(addrOf(0), d) },
		write: func(d []byte) error { return nc.Write(addrOf(0), d) },
		batch: func(ops []pcache.ReadOp) error { _, err := nc.ReadBatch(ops); return err },
	}, payloads, batchLines)
	if err != nil {
		return nil, fmt.Errorf("netsrv: %w", err)
	}
	add("netsrv.read_rtt_us", nR, "us", sR)
	add("netsrv.read_batch32_rtt_us", nB*32, "us", sB*32)

	// cluster: both replicas hold the prefilled lines.
	cc, err := twodcache.DialCluster(twodcache.ClusterConfig{Endpoints: addrs, IdempotentWrites: true})
	if err != nil {
		return nil, err
	}
	closers = append(closers, func() { cc.Close() })
	cR, cW, _, err := measureLine(lineOps{
		read: func(d []byte) error {
			b, err := cc.Read(addrOf(0), len(d))
			copy(d, b)
			return err
		},
		write: func(d []byte) error { return cc.Write(addrOf(0), d) },
	}, payloads, batchLines)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	add("cluster.read_us", cR, "us", nR)
	add("cluster.write_us", cW, "us", 0)
	fo, err := fanoutSelf(addrs, payloads[0])
	if err != nil {
		return nil, fmt.Errorf("cluster fan-out: %w", err)
	}
	add("cluster.fanout_self_us", fo, "us", 0)

	fmt.Fprintf(log, "perfbench: ladder (one goroutine, resident 64 B line)\n")
	for _, r := range rows {
		fmt.Fprintf(log, "  %-32s %10.3f %-2s  tax %+10.3f\n", r.name, r.value, r.unit, r.tax)
	}
	return rows, nil
}

// fanoutSelf returns the mean time, in ns, that a cluster write spends
// beyond its slowest replica call, timed through a Dial wrapper on a
// cluster client of its own, so the wrapper does not slow the rows
// above.
func fanoutSelf(addrs []string, data []byte) (float64, error) {
	tr := newTracer()
	cc, err := twodcache.DialCluster(twodcache.ClusterConfig{
		Endpoints: addrs, IdempotentWrites: true,
		Dial: func(addr string) (cluster.Conn, error) {
			c, err := twodcache.DialNet(addr)
			if err != nil {
				return nil, err
			}
			return &tracedReplica{Conn: c, t: tr}, nil
		},
	})
	if err != nil {
		return 0, err
	}
	defer cc.Close()
	const calls = 2000
	var self time.Duration
	for i := 0; i < calls; i++ {
		ctx, c := tr.begin()
		t0 := time.Now()
		if err := cc.WriteCtx(ctx, addrOf(0), data); err != nil {
			return 0, err
		}
		self += time.Since(t0) - time.Duration(c.maxChild.Load())
	}
	return float64(self.Nanoseconds()) / calls, nil
}
