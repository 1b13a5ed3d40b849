package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqpeer/internal/admission"
	"sqpeer/internal/channel"
	"sqpeer/internal/exec"
	"sqpeer/internal/network"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/routing"
	"sqpeer/internal/rql"
)

// tracedShare is the fraction of a traced run's seconds given to each of
// its two windows: one untraced (the overhead baseline and the runtime
// metrics), one traced. The isolated stages take the rest.
const tracedShare = 0.4

// addSample caps the triples the rdf.add stage loads per pass, bounding
// its memory on the bulk workloads.
const addSample = 20000

// reportedKinds are the message kinds whose volume is reported per
// operation; a Call's reply leg counts under its request's kind.
var reportedKinds = []string{"exec.subplan", "chan.open", "chan.packet", "chan.close", "query.route", "adv.push"}

// selfTimed are the spans whose self time is reported per query.
var selfTimed = []string{"query", "compile", "route", "generate", "optimize", "execute", "collect"}

// layerTimes collects the traced window's per-call timings and counts.
type layerTimes struct {
	spans       map[string][]time.Duration
	comparisons int
	queries     int
	writes      int
	answerRows  int
	messages    int
	// openSpan is the span a bridge forward hangs under (-1 for none),
	// openOp its operation; forwards arrive on network goroutines.
	openSpan, openOp atomic.Int64
}

// kindCounter is a network.Injector that never faults and only sums
// inter-node payload volume per message kind.
type kindCounter struct {
	mu    sync.Mutex
	bytes map[string]int
}

func (k *kindCounter) Intercept(m network.Message) network.Fault {
	kind := strings.TrimSuffix(m.Kind, ".reply")
	k.mu.Lock()
	k.bytes[kind] += m.Size()
	k.mu.Unlock()
	return network.Fault{}
}

// runtimeSample reads the Go runtime's cumulative counters.
func runtimeSample() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// heapPeak samples the live heap objects every few milliseconds until
// stopped, returning the largest reading in MiB.
func heapPeak() (stop func() float64) {
	done := make(chan struct{})
	var peak uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak) / (1 << 20)
	}
}

// allPeers lists every peer of the system once.
func (s *system) allPeers() []*peer.Peer {
	seen := map[*peer.Peer]bool{}
	var out []*peer.Peer
	add := func(p *peer.Peer) {
		if p != nil && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, id := range s.ownerIDs {
		add(s.owners[id])
	}
	for _, p := range s.askers {
		add(p)
	}
	add(s.super)
	return out
}

// engineTotals sums executor metrics and channel stats over every peer.
func (s *system) engineTotals() (exec.Metrics, channel.ManagerStats) {
	var m exec.Metrics
	var c channel.ManagerStats
	for _, p := range s.allPeers() {
		pm, pc := p.Engine.Metrics(), p.Channels.Stats()
		m.SubplansShipped += pm.SubplansShipped
		m.RowsShipped += pm.RowsShipped
		m.BytesShipped += pm.BytesShipped
		m.Retries += pm.Retries
		m.Replans += pm.Replans
		c.PacketsSent += pc.PacketsSent
		c.PayloadBytesSent += pc.PayloadBytesSent
		c.PacketsDuplicate += pc.PacketsDuplicate
	}
	return m, c
}

func (r *runner) messages() int {
	n := 0
	for _, net := range r.sys.nets {
		n += net.Counters().Messages
	}
	return n
}

// traced is the --trace 1 run: setup-layer costs, an untraced window, a
// traced window replaying the same operations step by step, and the
// isolated stage costs on the workload's own data.
func (r *runner) traced() error {
	secs := r.cfg.seconds * tracedShare
	var newPeer time.Duration
	for _, d := range r.sys.newPeer {
		newPeer += d
	}
	r.put("peer.new_ms", float64(newPeer.Nanoseconds())/1e6/float64(len(r.sys.newPeer)), "ms")

	// Untraced window: the overhead baseline and the runtime's view.
	runtime.GC()
	rt0 := runtimeSample()
	stopPeak := heapPeak()
	plain := r.measure(secs, 0, 0)
	peak := stopPeak()
	rt1 := runtimeSample()
	if len(plain.queryLat) == 0 || plain.answerRows == 0 {
		return fmt.Errorf("untraced window answered no query")
	}
	delta := func(i int) float64 { return sampleFloat(rt1[i]) - sampleFloat(rt0[i]) }
	ops := float64(len(plain.queryLat) + len(plain.writeLat))
	rows := float64(plain.answerRows)
	r.put("runtime.gc_cpu_frac", delta(0)/delta(1), "fraction")
	r.put("runtime.gc_cycles", delta(2)/ops, "1/op")
	r.put("runtime.allocs_per_answer_row", delta(3)/rows, "1/row")
	r.put("runtime.alloc_bytes_per_answer_row", delta(4)/rows, "B/row")
	r.put("runtime.heap_peak_mb", peak, "MiB")

	// Traced window.
	rec := newRecorder()
	l := &layerTimes{spans: map[string][]time.Duration{}}
	l.openSpan.Store(-1)
	r.rec, r.layer = rec, l
	counter := &kindCounter{bytes: map[string]int{}}
	for _, net := range r.sys.nets {
		net.SetInjector(counter)
	}
	if br := r.sys.bridge; br != nil {
		fn := func(start, end time.Time) {
			rec.add("tcp_forward", int(l.openSpan.Load()), int(l.openOp.Load()), start, end)
		}
		br.onForward.Store(&fn)
	}
	m0, c0 := r.sys.engineTotals()
	r.measure(secs, 0, 0)
	m1, c1 := r.sys.engineTotals()
	for _, net := range r.sys.nets {
		net.SetInjector(nil)
	}
	if br := r.sys.bridge; br != nil {
		br.onForward.Store(nil)
	}
	r.rec, r.layer = nil, nil
	if l.queries == 0 || l.answerRows == 0 || l.writes == 0 {
		return fmt.Errorf("traced window too short: %d queries, %d writes", l.queries, l.writes)
	}

	q, arows := float64(l.queries), float64(l.answerRows)
	us := func(name string) float64 { return medianDur(l.spans[name]) / 1e3 }
	r.put("rql.compile_us", us("compile"), "us")
	r.put("routing.route_us", us("route"), "us")
	r.put("routing.comparisons_per_query", float64(l.comparisons)/q, "count")
	r.put("plan.generate_us", us("generate"), "us")
	r.put("optimizer.optimize_us", us("optimize"), "us")
	r.put("exec.execute_ms", us("execute")/1e3, "ms")
	r.put("rql.collect_us", us("collect"), "us")
	r.put("rdf.update_us", us("update"), "us")
	r.put("peer.refresh_adv_us", us("refresh_adv"), "us")
	r.put("peer.push_adv_us", us("push_adv"), "us")
	r.put("exec.subplans_per_query", float64(m1.SubplansShipped-m0.SubplansShipped)/q, "count")
	r.put("exec.rows_shipped_per_answer_row", float64(m1.RowsShipped-m0.RowsShipped)/arows, "ratio")
	r.put("exec.bytes_shipped_per_answer_row", float64(m1.BytesShipped-m0.BytesShipped)/arows, "B/row")
	r.put("exec.retries", float64(m1.Retries-m0.Retries), "count")
	r.put("exec.replans", float64(m1.Replans-m0.Replans), "count")
	r.put("channel.packets_per_query", float64(c1.PacketsSent-c0.PacketsSent)/q, "count")
	shipped := max(1, m1.RowsShipped-m0.RowsShipped)
	r.put("channel.payload_bytes_per_row", float64(c1.PayloadBytesSent-c0.PayloadBytesSent)/float64(shipped), "B/row")
	r.put("channel.packets_duplicate", float64(c1.PacketsDuplicate-c0.PacketsDuplicate), "count")
	r.put("network.messages_per_query", float64(l.messages)/q, "count")
	ops = float64(l.queries + l.writes)
	for _, kind := range reportedKinds {
		r.put("network.bytes."+kind, float64(counter.bytes[kind])/ops, "B/op")
	}

	// Spans: tracing overhead, self time per layer, bridge forwards.
	untracedP50 := quantileDur(plain.queryLat, 0.5)
	tracedP50 := medianDur(l.spans["query"])
	r.put("trace.overhead_ms", (tracedP50-untracedP50)/1e6, "ms")
	self := rec.selfTimes()
	for _, name := range selfTimed {
		r.put("trace.self_ms."+name, float64(self[name].Nanoseconds())/1e6/q, "ms")
	}
	names := map[int]string{}
	var forwards []time.Duration
	var queryForwards int
	rec.mu.Lock()
	for _, s := range rec.spans {
		names[s.ID] = s.Name
	}
	for _, s := range rec.spans {
		if s.Name == "tcp_forward" {
			forwards = append(forwards, s.dur())
			if names[s.Parent] == "execute" {
				queryForwards++
			}
		}
	}
	nspans := len(rec.spans)
	rec.mu.Unlock()
	r.put("network.tcp_calls_per_query", float64(queryForwards)/q, "count")
	// Zero on the workloads without a bridge.
	r.put("network.tcp_call_us", medianDur(forwards)/1e3, "us")
	r.logf("# traced: %d queries, %d writes, %d spans; untraced p50 %.3fms, traced p50 %.3fms",
		l.queries, l.writes, nspans, untracedP50/1e6, tracedP50/1e6)
	if r.cfg.spans != "" {
		if err := rec.write(r.cfg.spans); err != nil {
			return err
		}
		r.logf("# spans written to %s", r.cfg.spans)
	}

	// Isolated stages on the workload's own data.
	d, err := r.stageData()
	if err != nil {
		return err
	}
	triples := d.union.Triples()
	triples = triples[:min(len(triples), addSample)]
	add := measureStage(r.cfg.scale.stageMinTime, nil, func() int {
		rdf.NewBase().AddAll(triples)
		return len(triples)
	})
	r.put("rdf.add_ns_per_triple", add.ns, "ns")
	r.put("rdf.add_bytes_per_triple", add.bytes, "B")
	costs, err := runStages(d, r.cfg.scale.stageMinTime)
	if err != nil {
		return err
	}
	for _, name := range stageNames {
		c := costs[name]
		if perByte(name) {
			r.put(name+"_ns_per_byte", c.ns, "ns/B")
			r.put(name+"_allocs_per_kib", c.allocs*1024, "1/KiB")
			r.put(name+"_bytes_per_byte", c.bytes, "B/B")
			continue
		}
		r.put(name+"_ns_per_row", c.ns, "ns/row")
		r.put(name+"_allocs_per_row", c.allocs, "1/row")
		r.put(name+"_bytes_per_row", c.bytes, "B/row")
	}
	return nil
}

// stageData assembles the isolated stages' input from the workload's own
// bases and its two-pattern chain query.
func (r *runner) stageData() (stageData, error) {
	c, err := rql.ParseAndAnalyze(r.sys.syn.RQL(1, 2), r.sys.schema)
	if err != nil {
		return stageData{}, err
	}
	return stageData{
		union: unionOf(r.sys.bases), bases: r.sys.bases, schema: r.sys.schema,
		p1: c.Pattern.Patterns[0], p2: c.Pattern.Patterns[1], vars: c.Pattern.Projections,
	}, nil
}

// writeTraced is write with a span around each step.
func (r *runner) writeTraced(p *peer.Peer, t rdf.Triple) (time.Duration, bool, error) {
	l := r.layer
	l.writes++
	op := l.queries + l.writes
	root := r.rec.begin("write", -1, op)
	var ok bool
	_ = r.step("update", root, op, func() error {
		ok = p.Base.Remove(t)
		ok = p.Base.Add(t) && ok
		return nil
	})
	_ = r.step("refresh_adv", root, op, func() error {
		p.RefreshAdvertisement()
		return nil
	})
	err := r.step("push_adv", root, op, func() error { return p.PushAdvertisement(r.sys.adTarget) })
	return r.rec.end(root), ok, err
}

// step runs fn inside a span named name under root; bridge forwards made
// during fn hang under that span.
func (r *runner) step(name string, root, op int, fn func() error) error {
	l := r.layer
	sp := r.rec.begin(name, root, op)
	l.openSpan.Store(int64(sp))
	l.openOp.Store(int64(op))
	err := fn()
	l.openSpan.Store(-1)
	l.spans[name] = append(l.spans[name], r.rec.end(sp))
	return err
}

func medianDur(ds []time.Duration) float64 { return quantileDur(ds, 0.5) }

// quantileDur is quantile over durations, in nanoseconds.
func quantileDur(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds())
	}
	sort.Float64s(xs)
	return hdQuantile(xs, q)
}

// askTraced replays Peer.Ask as the facade's public steps — compile,
// route, generate, optimize, execute, collect — with a span around each.
func (r *runner) askTraced(p *peer.Peer, q string) (*rql.ResultSet, time.Duration, error) {
	l := r.layer
	l.queries++
	op := l.queries + l.writes
	msgs := r.messages()
	root := r.rec.begin("query", -1, op)
	step := func(name string, fn func() error) error { return r.step(name, root, op, fn) }
	var c *rql.Compiled
	var rs *rql.ResultSet
	err := step("compile", func() (err error) {
		c, err = p.Compile(q)
		return err
	})
	var ann *pattern.Annotated
	if err == nil {
		err = step("route", func() (err error) {
			if p.Super != "" {
				ann, err = p.RequestRouting(p.Super, c.Pattern)
				return err
			}
			var st routing.Stats
			ann, st = p.Router.RouteWithStats(c.Pattern)
			l.comparisons += st.Comparisons
			return nil
		})
	}
	if err == nil && p.Super != "" {
		// The super-peer routed behind a network call; count its
		// subsumption tests with an untimed replay of the same route.
		_, st := r.sys.super.Router.RouteWithStats(c.Pattern)
		l.comparisons += st.Comparisons
	}
	var pl, opt *plan.Plan
	if err == nil {
		err = step("generate", func() (err error) {
			pl, err = plan.Generate(ann)
			return err
		})
	}
	if err == nil {
		err = step("optimize", func() error {
			opt = optimizer.Optimize(pl, optimizer.Options{})
			return nil
		})
	}
	var res *exec.Result
	if err == nil {
		err = step("execute", func() (err error) {
			res, err = p.Engine.ExecuteAnnotatedQoS(opt, nil, admission.QoS{})
			return err
		})
	}
	if err == nil {
		err = step("collect", func() error {
			filtered, err := rql.ApplyFilters(res.Rows, c.Query.Where)
			if err != nil {
				return err
			}
			rs = filtered.Project(c.Pattern.Projections).Limit(c.Query.Limit)
			return nil
		})
	}
	d := r.rec.end(root)
	l.spans["query"] = append(l.spans["query"], d)
	l.messages += r.messages() - msgs
	if err == nil {
		l.answerRows += rs.Len()
	}
	return rs, d, err
}
