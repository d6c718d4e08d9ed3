// Command perfbench is the repository's serving benchmark. It builds the
// protected-cache stack in process through its public constructors,
// drives one closed-loop workload for a fixed window, verifies every
// read against a shadow copy, and prints one JSON result line: the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a
// traced run plus the layer ladder. See README.md.
//
//	go run . -workload store-local -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"twodcache"
)

const (
	setupReps = 21                     // set-ups per end-to-end run; setup_s is their median
	segments  = 4                      // stacks an end-to-end window is split over
	warmup    = 500 * time.Millisecond // untimed traffic between set-up and the window
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "store-local, wire-single or cluster-batch")
	seed := fs.Int64("seed", 1, "workload seed: op streams, payloads and the fault schedule")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics and the ladder")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans and the ladder here as JSON lines")
	commit := fs.String("commit", "unknown", "source revision recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp := workloadByName(*name)
	if sp == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (store-local|wire-single|cluster-batch), -seconds > 0, -trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	window := time.Duration(*seconds * float64(time.Second))

	host := map[string]any{
		"nproc": runtime.NumCPU(), "cpu_model": cpuModel(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "commit": *commit, "seed": *seed,
		"workload": sp.name, "seconds": *seconds, "trace": *trace,
	}
	steal0, total0 := cpuTicks()
	hostLine := func() string {
		// Time the hypervisor gave this VM's CPUs to others while the
		// benchmark ran: a run with a large share is not comparable.
		host["steal_frac"] = stealShare(steal0, total0)
		b, _ := json.Marshal(map[string]any{"host": host})
		return string(b)
	}

	var res *result
	var err error
	if *trace == 0 {
		res, err = endToEnd(sp, *seed, window, stderr)
	} else {
		res, err = traced(sp, *seed, window, *traceOut, hostLine, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, hostLine())
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd measures what a user of the stack sees, with tracing off.
// The window is split over segments stacks, each set up afresh: two
// stacks built the same way in one process ran 10-20% apart on the
// 2-core host this benchmark was built on, while one stack held steady
// for its whole life, so a run measured on one stack would report that
// stack's luck.
func endToEnd(sp *spec, seed int64, window time.Duration, log io.Writer) (*result, error) {
	var setups, setupSteals []float64
	timedSetUp := func() (*session, error) {
		runtime.GC()
		steal0, ticks0 := cpuTicks()
		t0 := time.Now()
		r, err := setUp(sp, seed, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupSteals = append(setupSteals, stealShare(steal0, ticks0))
		return r, nil
	}
	// Set-ups beyond the measured stacks only add samples to setup_s.
	for i := segments; i < setupReps; i++ {
		r, err := timedSetUp()
		if err != nil {
			return nil, err
		}
		r.stk.close()
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var t tally
	var slices []slice
	var heap uint64
	for i := 0; i < segments; i++ {
		r, err := timedSetUp()
		if err != nil {
			return nil, err
		}
		r.window(warmup)
		runtime.GC()
		ts, _, sl := r.window(window / segments)
		t.add(&ts)
		slices = append(slices, sl...)
		if i == segments-1 {
			r.stopScrubbers() // their sweep garbage would count as live
			heap = liveHeap()
		}
		v := r.verdict(&ts, log)
		res.Correct = res.Correct && v.Correct
		r.stk.close()
	}
	res.Attempted, res.Failed = t.ops, t.failed
	fig, rates := sliceMedians(slices)

	res.set("ops_per_s", fig["ops_per_s"], "1/s")
	for _, name := range []string{"read_p50_us", "read_p90_us", "write_p50_us", "write_p90_us", "cpu_us_per_op"} {
		res.set(name, fig[name], "us")
	}
	res.set("heap_live_mb", float64(heap)/(1<<20), "MB")
	var quietSetups []float64
	for i, ok := range quiet(setupSteals) {
		if ok {
			quietSetups = append(quietSetups, setups[i])
		}
	}
	res.set("setup_s", median(quietSetups), "s")
	fmt.Fprintf(log, "perfbench: %s: %d ops on %d stacks; set-ups %v; ops/s per slice %v\n",
		sp.name, t.ops, segments, fmtSecs(setups), fmtRates(rates))
	return res, nil
}

// sliceMedians returns the rate and latency figures of a window and
// the rate of every slice. Each figure is the median of its per-slice
// values over the slices in which the hypervisor stole no more CPU time
// than in the window's median slice: on a shared host, time the host
// gives to other guests slows every layer at once, so those slices
// measure the neighbours, not the stack. On a quiet host every slice
// counts.
func sliceMedians(slices []slice) (fig map[string]float64, rates []float64) {
	steals := make([]float64, len(slices))
	for i, s := range slices {
		steals[i] = s.steal
		rates = append(rates, float64(s.ops)/s.wall.Seconds())
	}
	var qs []slice
	var qRates, cpus []float64
	for i, ok := range quiet(steals) {
		if ok {
			qs = append(qs, slices[i])
			qRates = append(qRates, rates[i])
			cpus = append(cpus, slices[i].cpu.Seconds()*1e6/float64(slices[i].ops))
		}
	}
	pct := func(of func(slice) float64) float64 {
		var xs []float64
		for _, s := range qs {
			if v := of(s); v > 0 {
				xs = append(xs, v/1e3)
			}
		}
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	return map[string]float64{
		"ops_per_s":     median(qRates),
		"cpu_us_per_op": median(cpus),
		"read_p50_us":   pct(func(s slice) float64 { return s.read[0] }),
		"read_p90_us":   pct(func(s slice) float64 { return s.read[1] }),
		"write_p50_us":  pct(func(s slice) float64 { return s.write[0] }),
		"write_p90_us":  pct(func(s slice) float64 { return s.write[1] }),
	}, rates
}

// quiet marks the samples in which the hypervisor stole no more of the
// host's CPU time than in the median sample.
func quiet(steals []float64) []bool {
	limit := median(steals)
	ok := make([]bool, len(steals))
	for i, s := range steals {
		ok[i] = s <= limit
	}
	return ok
}

// verdict runs the final check and fills the correctness fields.
func (r *session) verdict(t *tally, log io.Writer) *result {
	dirty, wrong := r.finalCheck(log)
	r.unrepaired = dirty
	res := &result{Attempted: t.ops, Failed: t.failed, Metrics: map[string]metric{}}
	res.Correct = t.silent == 0 && dirty == 0 && wrong == 0
	if r.inj != nil {
		ev, flips := r.inj.counts()
		fmt.Fprintf(log, "perfbench: faults: %d events (%d bits) injected, %d arrays left unrepaired\n", ev, flips, dirty)
	}
	fmt.Fprintf(log, "perfbench: verify: %d failed ops, %d accounted losses, %d silent reads, %d wrong lines at the end\n",
		t.failed, t.accounted, t.silent, wrong)
	return res
}

// traced runs an untraced window, then the same workload with every
// seam wrapped, then the ladder. Each window is half the run's length,
// so a traced run takes about as long as an end-to-end one.
func traced(sp *spec, seed int64, window time.Duration, out string, hostLine func() string, log io.Writer) (*result, error) {
	window /= 2
	// Untraced window: runtime costs, hit ratio, generator self time,
	// and the throughput the tracing overhead is taken against.
	r, err := setUp(sp, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.window(warmup)
	runtime.GC()
	rt0 := readRuntime()
	h0, acc0 := r.stk.hits()
	ta, wallA, _ := r.window(window)
	rt1 := readRuntime()
	h1, acc1 := r.stk.hits()
	resA := r.verdict(&ta, log)
	evA := r.faultEvents()
	r.stk.close()

	tr := newTracer()
	rb, err := setUp(sp, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	rb.window(warmup)
	tr.reset()
	c0, rw0 := rb.clusterCounters(), rb.stk.recoveredWords()
	tb, wallB, _ := rb.window(window)
	sc := tr.snapshot()
	c1, rw1 := rb.clusterCounters(), rb.stk.recoveredWords()
	if sc.recoveryP50 == 0 {
		rb.recoveryProbe(seed)
		sc.recoveryP50 = tr.recoveryP50()
	}
	resB := rb.verdict(&tb, log)
	evB := rb.faultEvents()
	rb.stk.close()

	lad, err := ladder(log)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	res := &result{
		Correct:   resA.Correct && resB.Correct,
		Attempted: resA.Attempted + resB.Attempted,
		Failed:    resA.Failed + resB.Failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range lad {
		res.set(m.name, m.value, m.unit)
	}

	opsA, opsB := float64(ta.ops), float64(tb.ops)
	res.set("go.allocs_per_op", float64(rt1.mallocs-rt0.mallocs)/opsA, "allocs/op")
	res.set("go.alloc_bytes_per_op", float64(rt1.allocBytes-rt0.allocBytes)/opsA, "B/op")
	res.set("go.gc_cycles_per_s", float64(rt1.gcCycles-rt0.gcCycles)/wallA.Seconds(), "1/s")
	res.set("go.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/(rt1.totalCPU-rt0.totalCPU), "ratio")
	res.set("pcache.hit_ratio", float64(h1-h0)/float64(acc1-acc0), "ratio")
	res.set("bench.gen_self_us_per_op", ta.genTime.Seconds()*1e6/opsA, "us")
	rateA, rateB := opsA/wallA.Seconds(), opsB/wallB.Seconds()
	res.set("bench.tracing_overhead_frac", (rateA-rateB)/rateA, "ratio")

	res.set("scrub.busy_frac", time.Duration(sc.scrubBusy).Seconds()/wallB.Seconds(), "ratio")
	res.set("scrub.passes_per_s", float64(sc.scrubPasses)/wallB.Seconds(), "1/s")
	res.set("resilience.recoveries", float64(rw1-rw0), "count")
	res.set("resilience.recovery_p50_us", sc.recoveryP50/1e3, "us")
	res.set("resilience.uncorrectable", float64(sc.uncorrectable), "count")
	res.set("resilience.faults_injected", float64(evA+evB), "count")
	res.set("resilience.faults_unrepaired", float64(r.unrepaired+rb.unrepaired), "count")

	res.set("backing.reads_per_op", float64(sc.backingReads)/opsB, "calls/op")
	res.set("backing.writes_per_op", float64(sc.backingWrites)/opsB, "calls/op")
	res.set("netsrv.client_writes_per_op", float64(sc.cliWrites)/opsB, "calls/op")
	res.set("netsrv.client_reads_per_op", float64(sc.cliReads)/opsB, "calls/op")
	res.set("netsrv.server_writes_per_op", float64(sc.srvWrites)/opsB, "calls/op")
	res.set("netsrv.bytes_per_op", float64(sc.cliBytes)/opsB, "B/op")
	res.set("store.ops_per_call", float64(sc.storeOps)/float64(sc.storeCalls), "ops/call")
	res.set("store.busy_us_per_op", time.Duration(sc.storeBusy).Seconds()*1e6/opsB, "us")
	res.set("netsrv.wire_self_us", (tb.callTime-time.Duration(sc.storeBusy)).Seconds()*1e6/opsB, "us")
	res.set("cluster.replica_calls_per_op", float64(sc.replicaCalls)/opsB, "calls/op")
	if tb.fanoutCalls > 0 { // else the ladder's figure stands
		res.set("cluster.fanout_self_us", tb.fanoutSelf.Seconds()*1e6/float64(tb.fanoutCalls), "us")
	}
	res.set("cluster.hedges", float64(c1.hedges-c0.hedges), "count")
	res.set("cluster.retries", float64(c1.retries-c0.retries), "count")
	res.set("cluster.read_repairs", float64(c1.repairs-c0.repairs), "count")

	if out != "" {
		extra := []string{hostLine()}
		for _, m := range lad {
			b, _ := json.Marshal(map[string]any{"ladder": m.name, "value": m.value, "unit": m.unit, "tax": m.tax})
			extra = append(extra, string(b))
		}
		if err := tr.write(out, extra); err != nil {
			return nil, fmt.Errorf("trace output: %w", err)
		}
	}
	fmt.Fprintf(log, "perfbench: %s traced: %.0f ops/s untraced, %.0f ops/s traced\n", sp.name, rateA, rateB)
	return res, nil
}

// probeFaults is the number of fault events recoveryProbe strikes.
const probeFaults = 64

// recoveryProbe strikes probeFaults seeded fault events into the first
// store after a window in which no fault was repaired, sweeping the
// struck shard after each, so that every workload reports what one 2D
// recovery costs on its store. It stops the scrubbers, whose engines
// the sweeps would otherwise share; the final check stops them anyway.
func (r *session) recoveryProbe(seed int64) {
	r.stopScrubbers()
	st := r.stk.stores[0]
	in := newInjector(deriveSeed(seed, 0x9b0be), 0, st)
	for i := 0; i < probeFaults; i++ {
		ev := in.inject()
		st.Shard(ev.shard).NewScrubber(twodcache.ScrubberConfig{}).Sweep()
	}
}

func (r *session) faultEvents() uint64 {
	if r.inj == nil {
		return 0
	}
	ev, _ := r.inj.counts()
	return ev
}

type clusterCounts struct{ hedges, retries, repairs uint64 }

func (r *session) clusterCounters() clusterCounts {
	s := r.stk.reg.Snapshot()
	return clusterCounts{
		hedges:  s.Counter("cluster_hedges_total"),
		retries: s.Counter("cluster_retries_total"),
		repairs: s.Counter("cluster_read_repairs_total"),
	}
}

// --- process measurements ---------------------------------------------

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap the second of two forced collections found
// reachable (the second empties sync.Pool victim caches). Background
// work allocating after that collection does not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

type runtimeCounts struct {
	mallocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU               float64
}

func readRuntime() runtimeCounts {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounts{
		mallocs:    s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// stealShare is the share of the host's CPU ticks since (steal0,
// ticks0) that the hypervisor stole; 0 where /proc/stat is unreadable.
func stealShare(steal0, ticks0 uint64) float64 {
	steal, ticks := cpuTicks()
	if ticks <= ticks0 {
		return 0
	}
	return float64(steal-steal0) / float64(ticks-ticks0)
}

// cpuTicks returns the host's steal and total CPU ticks from /proc/stat,
// or zeros where it cannot be read.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user .. steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtRates(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.0f", x)
	}
	return strings.Join(parts, " ")
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.1fms", x*1e3)
	}
	return strings.Join(parts, " ")
}
