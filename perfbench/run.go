package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"sqpeer/internal/gen"
	"sqpeer/internal/peer"
	"sqpeer/internal/rql"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spans is where the traced pass writes its spans (JSON lines).
	spans string
	scale scale
	// corrupt flips one expected answer (self-test only).
	corrupt bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// digest folds the answers received, one per distinct query.
	digest uint64
}

// writeShare is the fraction of serve_mix operations that are writes;
// bulkWriteShare the fraction of a bulk run's time given to its write
// phase, which follows the query phase.
const (
	writeShare     = 0.10
	bulkWriteShare = 0.25
)

// runner carries one run's state.
type runner struct {
	cfg    config
	log    io.Writer
	sys    *system
	oracle oracle
	// rng draws the operation sequence; separate from the data seed's
	// stream so the data and the choices vary independently.
	rng *rand.Rand

	res     result
	digests digestSet
	// rec and layer are set during the traced window only.
	rec   *recorder
	layer *layerTimes
}

// tally is what one measured window saw.
type tally struct {
	queryLat, writeLat []time.Duration
	queryBusy          time.Duration
	answerRows         int
	netBytes           int
}

func (r *runner) put(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// run executes one benchmark run and returns its result; the record of
// the run goes to log.
func run(cfg config, log io.Writer) (*result, error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %g", cfg.seconds)
	}
	r := &runner{cfg: cfg, log: log, digests: digestSet{},
		rng: gen.NewRNG(cfg.seed*7919 + 17)}
	r.res.Metrics = map[string]metric{}
	r.res.Correct = true
	goroutines := runtime.NumGoroutine()

	r.logf("# perfbench workload=%s seed=%d seconds=%g trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	r.logf("# times are wall-clock (time.Now), not the network's logical clock")
	r.logf("# go=%s GOMAXPROCS=%d nproc=%d", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	setups := cfg.scale.setups(cfg.workload)
	if cfg.trace {
		setups = 1
	}
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if r.sys != nil {
			if err := r.sys.close(); err != nil {
				return nil, err
			}
			r.sys = nil
		}
		runtime.GC()
		t := time.Now()
		sys, err := build(cfg.workload, cfg.scale, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
		r.sys = sys
	}
	triples := r.sys.triples()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	resident := float64(ms.HeapAlloc) / float64(triples)
	r.logf("# setup: %d runs %v s, %d peers, %d stored triples", setups, setupTimes, len(r.sys.newPeer), triples)

	r.sys.collectWritable()
	var err error
	if r.oracle, err = buildOracle(r.sys.schema, r.sys.bases, r.sys.queries); err != nil {
		return nil, err
	}
	if cfg.corrupt {
		r.oracle.corruptOne()
	}
	// Warm-up: every distinct query once, checked but not timed. The
	// collection that follows starts the measured windows from the
	// system's own live heap, without the oracle's garbage.
	for _, q := range r.sys.queries {
		r.query(r.sys.askers[0], q)
	}
	runtime.GC()

	if cfg.trace {
		err = r.traced()
	} else {
		r.put("setup_s", median(setupTimes), "s")
		r.put("resident_bytes_per_triple", resident, "B")
		tl := tails[cfg.workload]
		r.endToEnd(r.measure(cfg.seconds, minSamples(tl.query), minSamples(tl.write)))
	}
	if cerr := r.sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if !goroutinesSettle(goroutines) {
		r.logf("# FAIL: %d goroutines remain after teardown (started with %d)", runtime.NumGoroutine(), goroutines)
		r.res.Correct = false
	}
	if r.res.Failed > 0 {
		r.res.Correct = false
	}
	r.res.digest = r.digests.sum()
	r.logf("# answer_digest=%016x over %d distinct queries", r.res.digest, len(r.digests))
	r.logf("# failed_frac=%g (%d failed of %d attempted)", r.failedFrac(), r.res.Failed, r.res.Attempted)
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		r.logf("metric %s = %v %s", n, m.Value, m.Unit)
	}
	return &r.res, nil
}

func (r *runner) failedFrac() float64 {
	if r.res.Attempted == 0 {
		return 0
	}
	return float64(r.res.Failed) / float64(r.res.Attempted)
}

// goroutinesSettle waits up to two seconds for the goroutine count to fall
// back to what it was before the run started.
func goroutinesSettle(want int) bool {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if runtime.NumGoroutine() <= want {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// query poses q at p through the facade and checks the answer; it
// returns the answer rows (0 on failure) and the call's wall time.
func (r *runner) query(p *peer.Peer, q string) (int, time.Duration, bool) {
	r.res.Attempted++
	var rs *rql.ResultSet
	var err error
	var d time.Duration
	if r.rec != nil {
		rs, d, err = r.askTraced(p, q)
	} else {
		t := time.Now()
		rs, err = p.Ask(q)
		d = time.Since(t)
	}
	if err != nil {
		r.res.Failed++
		r.logf("# query error at %s: %v", p.ID, err)
		return 0, d, false
	}
	r.digests.note(q, rs)
	if !r.oracle.check(q, rs) {
		r.res.Failed++
		r.logf("# wrong answer at %s: %d rows, want %d", p.ID, rs.Len(), r.oracle[q].rows)
		return 0, d, false
	}
	return rs.Len(), d, true
}

// write rewrites one statement at its owner — Remove then Add of the same
// triple — and re-advertises: RefreshAdvertisement, then
// PushAdvertisement to the workload's advertisement target.
func (r *runner) write() (time.Duration, bool) {
	p, t := r.sys.pickWrite(r.rng)
	r.res.Attempted++
	var d time.Duration
	var ok bool
	var err error
	if r.rec != nil {
		d, ok, err = r.writeTraced(p, t)
	} else {
		start := time.Now()
		ok = p.Base.Remove(t)
		ok = p.Base.Add(t) && ok
		p.RefreshAdvertisement()
		err = p.PushAdvertisement(r.sys.adTarget)
		d = time.Since(start)
	}
	if err != nil || !ok {
		r.res.Failed++
		r.logf("# write error at %s: %v (statement present: %v)", p.ID, err, ok)
		return d, false
	}
	return d, true
}

// netBytes sums the accounted payload bytes over the system's networks.
func (r *runner) netBytes() int {
	n := 0
	for _, net := range r.sys.nets {
		n += net.Counters().Bytes
	}
	return n
}

// measure runs the workload's closed loop for the given wall time: on the
// bulk workloads a query phase then a write phase, on serve_mix a seeded
// mix of both. A kind short of its minimum count (at least one) runs on
// past its phase until it has it, so that each tail percentile keeps
// enough samples beyond it on a slow host.
func (r *runner) measure(seconds float64, minQueries, minWrites int) tally {
	var t tally
	minQueries, minWrites = max(minQueries, 1), max(minWrites, 1)
	bytes0 := r.netBytes()
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	queryEnd := end
	if r.cfg.workload != serveMix {
		queryEnd = start.Add(time.Duration(seconds * (1 - bulkWriteShare) * float64(time.Second)))
	}
	var queries, writes int
	for {
		now := time.Now()
		over := !now.Before(end)
		if over && queries >= minQueries && writes >= minWrites {
			break
		}
		var isWrite bool
		switch {
		case over:
			isWrite = queries >= minQueries
		case r.cfg.workload == serveMix:
			isWrite = r.rng.Float64() < writeShare
		default:
			isWrite = now.After(queryEnd) && queries >= minQueries
		}
		if isWrite {
			if writes == 0 && r.cfg.workload != serveMix {
				// The bulk write phase starts from a collected heap, so
				// the query phase's garbage is not charged to writes.
				runtime.GC()
			}
			writes++
			if d, ok := r.write(); ok {
				t.writeLat = append(t.writeLat, d)
			}
			continue
		}
		queries++
		p, q := r.sys.pickQuery(r.rng)
		if rows, d, ok := r.query(p, q); ok {
			t.queryLat = append(t.queryLat, d)
			t.queryBusy += d
			t.answerRows += rows
		}
	}
	t.netBytes = r.netBytes() - bytes0
	return t
}

// endToEnd reports the untraced window's metrics.
func (r *runner) endToEnd(t tally) {
	if len(t.queryLat) == 0 || len(t.writeLat) == 0 || t.answerRows == 0 {
		r.logf("# FAIL: window too short: %d queries, %d writes, %d answer rows", len(t.queryLat), len(t.writeLat), t.answerRows)
		r.res.Correct = false
		return
	}
	tl := tails[r.cfg.workload]
	r.latency("latency", t.queryLat, tl.query)
	r.latency("write", t.writeLat, tl.write)
	r.put("queries_per_s", float64(len(t.queryLat))/t.queryBusy.Seconds(), "1/s")
	r.put("answer_rows_per_s", float64(t.answerRows)/t.queryBusy.Seconds(), "rows/s")
	r.put("net_bytes_per_answer_row", float64(t.netBytes)/float64(t.answerRows), "B/row")
}

// tails fixes, per workload, the percentile reported as the query and the
// write tail. A tail must be the same percentile on every run, or runs that
// differ only in sample count would not compare, so it is chosen from the
// counts the workload yields in a 30-second run (bulk: about 40–75 queries
// and 70–120 writes; serve_mix: about 5000 queries and 550 writes) as the
// highest of p99.9/99/95/90/75 that keeps ten samples beyond it; measure
// runs a kind on until it has minSamples of them.
var tails = map[string]struct{ query, write float64 }{
	bulkInproc: {75, 75},
	bulkTCP:    {75, 75},
	serveMix:   {99, 95},
}

// minSamples is the sample count at which percentile p (0..100) has at
// least ten samples beyond it, with one to spare for the estimator.
func minSamples(p float64) int {
	return int(math.Ceil(11 / (1 - p/100)))
}

// latency reports the median and the given tail percentile of a sample
// set, with the number of samples beyond the tail.
func (r *runner) latency(prefix string, lat []time.Duration, p float64) {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	p50, tail := hdQuantile(ms, 0.5), hdQuantile(ms, p/100)
	r.put(prefix+"_p50_ms", p50, "ms")
	r.put(prefix+"_tail_ms", tail, "ms")
	r.logf("# %s: n=%d p50=%.3fms tail=p%g %.3fms (%d samples beyond)", prefix, len(ms), p50, p, tail, beyond(ms, tail))
}

// beyond counts the samples of sorted xs above v.
func beyond(xs []float64, v float64) int {
	return len(xs) - sort.Search(len(xs), func(i int) bool { return xs[i] > v })
}
