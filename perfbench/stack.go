package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"twodcache"
	"twodcache/internal/cluster"
	"twodcache/internal/netsrv"
	"twodcache/internal/obs"
	"twodcache/internal/pcache"
	"twodcache/internal/store"
)

// Geometry shared by every workload and every ladder rung: 64 B lines,
// and per shard 64 sets x 4 ways x 8 banks under EDC8 (256 lines).
const (
	lineBytes = 64
	numShards = 4
	numSets   = 64
	numWays   = 4
	numBanks  = 8
)

func cacheConfig() twodcache.ProtectedCacheConfig {
	return twodcache.ProtectedCacheConfig{Sets: numSets, Ways: numWays, LineBytes: lineBytes, Banks: numBanks}
}

// stack is one workload's system under test, built through the public
// constructors, plus the calls the workers drive it with.
type stack struct {
	stores []*store.Sharded // the local store, or one per replica
	reg    *obs.Registry    // cluster_* metrics

	// Single-op calls drive store-local and wire-single, batches
	// cluster-batch; every stack takes set-up's batch writes.
	readOne    func(ctx context.Context, worker int, addr uint64, dst []byte) error
	writeOne   func(ctx context.Context, worker int, addr uint64, data []byte) error
	readBatch  func(ctx context.Context, worker int, ops []pcache.ReadOp) error
	writeBatch func(ctx context.Context, worker int, ops []pcache.WriteOp) error

	closers []func() // run in reverse order by close
}

// epoch is the loss-epoch oracle, called in process: the owning set's
// epoch, maximised over replicas.
func (s *stack) epoch(addr uint64) uint64 {
	var max uint64
	for _, st := range s.stores {
		e, la := st.Locate(addr)
		if v := e.Cache().LossEpoch(int((la / lineBytes) % numSets)); v > max {
			max = v
		}
	}
	return max
}

// hits returns cache hits and accesses summed over the stores.
func (s *stack) hits() (hits, accesses uint64) {
	for _, st := range s.stores {
		x := st.Stats()
		hits += x.Hits
		accesses += x.Accesses
	}
	return hits, accesses
}

func (s *stack) recoveredWords() uint64 {
	var n uint64
	for _, st := range s.stores {
		n += recoveredWords(st)
	}
	return n
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// newStore builds one 4-shard store over its own in-memory backing; its
// scrubbers start once set-up has written the working set. With a
// tracer, the backing and event sinks are wrapped.
func newStore(sp *spec, tr *tracer) (*store.Sharded, error) {
	var backing pcache.Backing = twodcache.NewMemoryBacking(lineBytes)
	rcfg := twodcache.ResilienceConfig{SpareRows: 8, Metrics: twodcache.NewMetricsRegistry()}
	if tr != nil {
		backing = &tracedBacking{Backing: backing, t: tr}
		rcfg.Sink = traceSink{t: tr}
	}
	st, err := twodcache.NewShardedCache(twodcache.ShardedCacheConfig{
		Shards:     numShards,
		Cache:      cacheConfig(),
		Resilience: rcfg,
		Scrubber:   &twodcache.ScrubberConfig{Interval: sp.scrub},
	}, backing)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.watchArrays(st)
	}
	return st, nil
}

// build constructs the workload's stack and dials it. A nil tracer
// builds it bare; otherwise every seam carries a tracing wrapper.
func build(sp *spec, seed int64, tr *tracer) (_ *stack, err error) {
	s := &stack{reg: twodcache.NewMetricsRegistry()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	nStores := sp.replicas
	if nStores == 0 {
		nStores = 1
	}
	var addrs []string
	for r := 0; r < nStores; r++ {
		st, err := newStore(sp, tr)
		if err != nil {
			return nil, err
		}
		s.stores = append(s.stores, st)
		s.closers = append(s.closers, st.Stop)
		var served store.Store = st
		if tr != nil {
			served = &tracedStore{Store: st, t: tr}
		}
		if sp.replicas == 0 {
			s.readOne = func(ctx context.Context, _ int, addr uint64, dst []byte) error {
				return served.ReadIntoCtx(ctx, addr, dst)
			}
			s.writeOne = func(ctx context.Context, _ int, addr uint64, data []byte) error {
				return served.WriteCtx(ctx, addr, data)
			}
			s.writeBatch = func(ctx context.Context, _ int, ops []pcache.WriteOp) error {
				served.WriteBatchCtx(ctx, ops)
				return nil
			}
			return s, nil
		}
		addr, err := serve(s, served, st, tr)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
	}

	dial := func(addr string) (*netsrv.Client, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			nc = tr.clientConn(nc)
		}
		return netsrv.NewClient(nc), nil
	}
	if sp.replicas == 1 {
		clients := make([]*netsrv.Client, sp.conns)
		for i := range clients {
			c, err := dial(addrs[0])
			if err != nil {
				return nil, err
			}
			clients[i] = c
			s.closers = append(s.closers, func() { c.Close() })
		}
		s.readOne = func(_ context.Context, w int, addr uint64, dst []byte) error {
			return clients[w%len(clients)].ReadInto(addr, dst)
		}
		s.writeOne = func(ctx context.Context, w int, addr uint64, data []byte) error {
			return clients[w%len(clients)].WriteCtx(ctx, addr, data)
		}
		s.writeBatch = func(ctx context.Context, w int, ops []pcache.WriteOp) error {
			_, err := clients[w%len(clients)].WriteBatchCtx(ctx, ops)
			return err
		}
		return s, nil
	}

	ccfg := twodcache.ClusterConfig{
		Endpoints: addrs,
		Seed:      seed,
		// Full-line puts of self-contained values may be re-applied.
		IdempotentWrites: true,
		Metrics:          s.reg,
	}
	if tr != nil {
		ccfg.Dial = func(addr string) (cluster.Conn, error) {
			c, err := dial(addr)
			if err != nil {
				return nil, err
			}
			return &tracedReplica{Conn: c, t: tr}, nil
		}
	}
	cc, err := twodcache.DialCluster(ccfg)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { cc.Close() })
	s.readBatch = func(ctx context.Context, _ int, ops []pcache.ReadOp) error {
		_, err := cc.ReadBatchCtx(ctx, ops)
		return err
	}
	s.writeBatch = func(ctx context.Context, _ int, ops []pcache.WriteOp) error {
		_, err := cc.WriteBatchCtx(ctx, ops)
		return err
	}
	return s, nil
}

// serve starts a NetServer for st on a loopback port and returns its
// address; closing the stack drains it.
func serve(s *stack, served store.Store, st *store.Sharded, tr *tracer) (string, error) {
	srv, err := twodcache.NewNetServer(twodcache.NetServerConfig{
		Store: served,
		EpochOf: func(a uint64) uint64 {
			e, la := st.Locate(a)
			return e.Cache().LossEpoch(int((la / lineBytes) % numSets))
		},
	})
	if err != nil {
		return "", err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	var ln net.Listener = l
	if tr != nil {
		ln = &countedListener{Listener: l, t: tr}
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	s.closers = append(s.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
		}
		if err := <-done; err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	})
	return l.Addr().String(), nil
}
