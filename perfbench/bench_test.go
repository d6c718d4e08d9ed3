package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"twodcache/internal/pcache"
)

// The same seed must give the same op stream (silent-write choices
// included), the same frames and the same fault schedule.
func TestSameSeedSameInputs(t *testing.T) {
	sp := workloadByName("store-local")
	a := newOpGen(7, 1, 384, sp.writeFrac, sp.silentFrac)
	b := newOpGen(7, 1, 384, sp.writeFrac, sp.silentFrac)
	other := newOpGen(8, 1, 384, sp.writeFrac, sp.silentFrac)
	same, silent := true, 0
	for i := 0; i < 20000; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("op %d: %+v vs %+v", i, x, y)
		}
		if x != other.next() {
			same = false
		}
		if x.silent {
			silent++
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same op stream")
	}
	if silent == 0 {
		t.Fatal("no silent writes generated")
	}

	la, lb := make([]int, 32), make([]int, 32)
	va, vb := make([]uint64, 32), make([]uint64, 32)
	for i := 0; i < 500; i++ {
		wa, wb := a.frame(la, va), b.frame(lb, vb)
		if wa != wb || !reflect.DeepEqual(la, lb) || !reflect.DeepEqual(va, vb) {
			t.Fatalf("frame %d differs", i)
		}
		seen := map[int]bool{}
		for _, l := range la {
			if seen[l] {
				t.Fatalf("frame %d repeats line %d", i, l)
			}
			seen[l] = true
		}
	}

	plan := func(seed int64) []faultEvent {
		st, err := newStore(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := newInjector(seed, sp.faultEvery, st)
		evs := make([]faultEvent, 200)
		for i := range evs {
			evs[i] = in.draw()
		}
		return evs
	}
	if p, q := plan(3), plan(3); !reflect.DeepEqual(p, q) {
		t.Fatal("same seed, different fault schedules")
	}
	if reflect.DeepEqual(plan(3), plan(4)) {
		t.Fatal("seeds 3 and 4 gave the same fault schedule")
	}
}

// Histogram quantiles stay within histRelErr of an exact sort.
func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]float64, 200000)
	for i := range xs {
		// log-uniform over 20 ns .. 200 ms, plus exact small values
		v := math.Exp(math.Log(20) + rng.Float64()*math.Log(1e7))
		if i%50 == 0 {
			v = float64(rng.Intn(64))
		}
		d := time.Duration(v)
		xs[i] = float64(d)
		h.record(d)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
		got := h.quantile(q)
		if err := math.Abs(got-exact) / math.Max(exact, 1); err > histRelErr {
			t.Errorf("q=%v: got %v, exact %v, relative error %.5f > %.5f", q, got, exact, err, histRelErr)
		}
	}
}

// trialResult is everything a short deterministic drive observes.
type trialResult struct {
	outcomes []string // per call: read data or error
	contents [][]byte // every line of every store, read in process at the end
}

// drive issues calls from one goroutine, round-robin over the workers,
// and records every outcome; then it reads back every line of every
// store.
func drive(t *testing.T, r *session, calls int) trialResult {
	t.Helper()
	var res trialResult
	ctx := context.Background()
	buf := make([]byte, lineBytes)
	k := r.sp.batch
	for i := 0; i < calls; i++ {
		w := r.workers[i%len(r.workers)]
		if k == 0 {
			o := w.gen.next()
			addr := addrOf(w.base + o.line)
			var err error
			if o.write {
				if o.silent {
					copy(buf, w.line(o.line))
				} else {
					fillLine(buf, o.val)
				}
				if err = r.stk.writeOne(ctx, w.id, addr, buf); err == nil {
					copy(w.line(o.line), buf)
				}
				res.outcomes = append(res.outcomes, fmt.Sprint("w", err))
			} else {
				err = r.stk.readOne(ctx, w.id, addr, buf)
				res.outcomes = append(res.outcomes, fmt.Sprintf("r%x %v", buf, err))
			}
			if r.inj != nil {
				r.inj.tick()
			}
			continue
		}
		lines, vals := make([]int, k), make([]uint64, k)
		if w.gen.frame(lines, vals) {
			ops := make([]pcache.WriteOp, k)
			for j, l := range lines {
				ops[j] = pcache.WriteOp{Addr: addrOf(w.base + l), Data: make([]byte, lineBytes)}
				fillLine(ops[j].Data, vals[j])
			}
			err := r.stk.writeBatch(ctx, w.id, ops)
			for _, o := range ops {
				res.outcomes = append(res.outcomes, fmt.Sprint("w", err, o.Err))
			}
		} else {
			ops := make([]pcache.ReadOp, k)
			for j, l := range lines {
				ops[j] = pcache.ReadOp{Addr: addrOf(w.base + l), Dst: make([]byte, lineBytes)}
			}
			err := r.stk.readBatch(ctx, w.id, ops)
			for _, o := range ops {
				res.outcomes = append(res.outcomes, fmt.Sprintf("r%x %v %v", o.Dst, err, o.Err))
			}
		}
	}
	for _, st := range r.stk.stores {
		for l := 0; l < r.sp.lines; l++ {
			b := make([]byte, lineBytes)
			if err := st.ReadInto(addrOf(l), b); err != nil {
				t.Fatalf("read back line %d: %v", l, err)
			}
			res.contents = append(res.contents, b)
		}
	}
	return res
}

// Every seam wrapper forwards results and errors unchanged: the same
// seed driven through the bare and the traced stack gives the same
// outcome for every call and the same final contents in every store.
func TestWrappersForwardUnchanged(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			trial := func(tr *tracer) trialResult {
				r, err := setUp(sp, 5, tr)
				if err != nil {
					t.Fatal(err)
				}
				defer r.stk.close()
				if r.inj != nil {
					r.inj.every = 100 // strike faults within the short drive
				}
				return drive(t, r, 3000)
			}
			bare := trial(nil)
			tr := newTracer()
			traced := trial(tr)
			if !reflect.DeepEqual(bare.outcomes, traced.outcomes) {
				for i := range bare.outcomes {
					if bare.outcomes[i] != traced.outcomes[i] {
						t.Fatalf("call %d: bare %q, traced %q", i, bare.outcomes[i], traced.outcomes[i])
					}
				}
				t.Fatal("outcome counts differ")
			}
			for i := range bare.contents {
				if !bytes.Equal(bare.contents[i], traced.contents[i]) {
					t.Fatalf("final contents differ at line %d", i)
				}
			}
			sc := tr.snapshot()
			if sc.storeCalls == 0 {
				t.Fatal("the traced stack recorded no store calls")
			}
			if sp.replicas > 0 && (sc.cliWrites == 0 || sc.srvWrites == 0) {
				t.Fatal("the traced stack recorded no socket writes")
			}
			if sp.replicas > 1 && sc.replicaCalls == 0 {
				t.Fatal("the traced stack recorded no replica calls")
			}
		})
	}
}

// The read verifier flags a value that changed without a loss epoch.
func TestVerifierCatchesSilentCorruption(t *testing.T) {
	r, err := setUp(workloadByName("store-local"), 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.stk.close()
	w := r.workers[0]
	bad := make([]byte, lineBytes)
	fillLine(bad, 12345)
	if err := r.stk.stores[0].Write(addrOf(w.base), bad); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, lineBytes)
	if err := r.stk.readOne(context.Background(), 0, addrOf(w.base), got); err != nil {
		t.Fatal(err)
	}
	r.check(w, 0, got)
	if w.silent != 1 {
		t.Fatalf("silent = %d, want 1", w.silent)
	}
	if _, wrong := r.finalCheck(testWriter{t}); wrong != 1 {
		t.Fatalf("final check found %d wrong lines, want 1", wrong)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(bytes.TrimRight(p, "\n")))
	return len(p), nil
}

// Slices in which the hypervisor stole more than the median share are
// left out of the figures; on a quiet host every slice counts.
func TestSliceMediansSkipStolenSlices(t *testing.T) {
	mk := func(ops uint64, steal float64) slice {
		var h hist
		h.record(time.Duration(ops) * time.Microsecond)
		return slice{ops: ops, wall: time.Second, cpu: time.Second, steal: steal, read: percentiles(&h)}
	}
	fig, rates := sliceMedians([]slice{mk(100, 0), mk(50, 0.3), mk(110, 0.01), mk(40, 0.4)})
	if len(rates) != 4 {
		t.Fatalf("rates = %v, want one per slice", rates)
	}
	if got := fig["ops_per_s"]; got != 105 {
		t.Errorf("ops_per_s = %v, want 105 (the two quiet slices)", got)
	}
	fig, _ = sliceMedians([]slice{mk(100, 0), mk(50, 0), mk(110, 0)})
	if got := fig["ops_per_s"]; got != 100 {
		t.Errorf("ops_per_s = %v, want 100 (all slices)", got)
	}
}

// Both kinds of run print exactly the metrics BENCHMARK.json names, with
// its units; on a workload without faults or fan-out, the recovery
// probe and the ladder still give the recovery and fan-out times.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bench struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(res *result, defs []def) {
		t.Helper()
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: printed %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
			}
		}
	}
	sp := workloadByName("wire-single")
	res, err := endToEnd(sp, 1, 300*time.Millisecond, testWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	check(res, bench.EndToEnd)
	res, err = traced(sp, 1, 600*time.Millisecond, "", func() string { return "" }, testWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	check(res, bench.PerLayer)
	for _, name := range []string{"resilience.recovery_p50_us", "cluster.fanout_self_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}
