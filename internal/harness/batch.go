package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/obs"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

func init() {
	register("batch", "CLAIM-BATCH: columnar batch data plane — throughput, allocs/row, wire bytes, oracle-equal answers (§12)", claimBatch)
}

// batchSweep is the machine-readable artifact (BENCH_PR6.json). When
// Smoke is set the sweep ran at reduced scale (inside go test, where
// wall-clock numbers are meaningless — especially under -race); headline
// numbers come from `sqpeer-bench -exp batch`.
type batchSweep struct {
	Providers int          `json:"providers"`
	Props     int          `json:"props"`
	Smoke     bool         `json:"smoke,omitempty"`
	Points    []batchPoint `json:"points"`
}

// batchStats is the data plane's cost at one sweep point.
type batchStats struct {
	Seconds      float64 `json:"seconds"`
	RowsPerSec   float64 `json:"rowsPerSec"`
	AllocsPerRow float64 `json:"allocsPerRow"`
	BytesPerRow  float64 `json:"bytesPerRow"`
	PayloadBytes int     `json:"payloadBytes"`
}

type batchPoint struct {
	Chains      int        `json:"chains"`
	RowsShipped int        `json:"rowsShipped"`
	AnswerRows  int        `json:"answerRows"`
	Batch       batchStats `json:"batch"`
	OracleEqual bool       `json:"oracleEqual"`
	Digest      string     `json:"digest"`
}

// batchRun is one measured execution over a fresh system.
type batchRun struct {
	secs         float64
	rowsShipped  int
	answerRows   int
	allocsPerRow float64
	bytesPerRow  float64
	payloadBytes int
	digest       uint64
	// oracleDigest digests the centralized answer: rql.Eval over the
	// union of the provider bases.
	oracleDigest uint64
}

// claimBatch measures the columnar batch data plane on a multi-peer
// scan/join workload: a client P0 joins two property scans, each
// horizontally sliced across four provider peers, so every shipped row
// crosses the simulated wire once. The claims under test: the answer
// equals centralized evaluation over the union of the bases at every
// point, a same-seed rerun reproduces it, and the ≥1M-row headline point
// is reached. Allocation cost is gated separately against the committed
// BENCH_PR6.json (`sqpeer-bench -alloc-baseline`).
func claimBatch() *Report {
	r := &Report{ID: "batch", Title: "CLAIM-BATCH: columnar batch data plane — throughput, allocs/row, wire bytes, oracle-equal answers (§12)", Pass: true}
	const (
		providers = 4
		props     = 2
	)
	// Inside a test binary the sweep shrinks: answers stay assertable,
	// wall-clock numbers do not (the race detector alone skews them >10×).
	chainSweep := []int{50_000, 200_000, 500_000}
	smoke := testing.Testing()
	if smoke {
		chainSweep = []int{1_000, 2_000, 5_000}
	}

	sweep := batchSweep{Providers: providers, Props: props, Smoke: smoke}
	allOracleEqual := true
	r.linef("  p1⋈p2 over %d providers, horizontal slices:", providers)
	r.linef("  %8s %9s | %8s %11s %9s %10s", "chains", "shipped", "secs", "rows/s", "allocs/r", "payload-B")
	for _, chains := range chainSweep {
		bt := runBatchPoint(chains, providers, props)
		pt := batchPoint{
			Chains:      chains,
			RowsShipped: bt.rowsShipped,
			AnswerRows:  bt.answerRows,
			Batch:       bt.stats(),
			OracleEqual: bt.digest == bt.oracleDigest,
			Digest:      fmt.Sprintf("%016x", bt.digest),
		}
		sweep.Points = append(sweep.Points, pt)
		allOracleEqual = allOracleEqual && pt.OracleEqual
		r.linef("  %8d %9d | %8.2f %11.0f %9.2f %10d",
			chains, pt.RowsShipped,
			pt.Batch.Seconds, pt.Batch.RowsPerSec, pt.Batch.AllocsPerRow, pt.Batch.PayloadBytes)
		// Feed the registry the same way the Fig benches do, so the
		// allocation trajectory is queryable alongside throughput.
		usPerRow := pt.Batch.Seconds * 1e6 / float64(max(1, pt.RowsShipped))
		benchObserve(fmt.Sprintf("batch.chains%d", chains), usPerRow)
		ObserveBenchAlloc(fmt.Sprintf("batch.chains%d", chains),
			pt.Batch.AllocsPerRow, pt.Batch.BytesPerRow)
	}

	// Determinism: a same-seed rerun of the smallest point must land on
	// the same digest (the workload and engine have no hidden state).
	rerun := runBatchPoint(chainSweep[0], providers, props)
	deterministic := fmt.Sprintf("%016x", rerun.digest) == sweep.Points[0].Digest
	r.check("answer equals centralized rql.Eval over the union of the bases at every point", allOracleEqual)
	r.check("same-seed batch rerun reproduces the digest", deterministic)
	if smoke {
		r.linef("  (reduced smoke sweep inside go test; run `sqpeer-bench -exp batch` for headline sizes)")
	} else {
		head := sweep.Points[len(sweep.Points)-1]
		r.check("headline point ships ≥1M rows across the wire", head.RowsShipped >= 1_000_000)
	}

	if blob, err := json.MarshalIndent(sweep, "", "  "); err == nil {
		r.ArtifactName = "BENCH_PR6.json"
		r.ArtifactJSON = append(blob, '\n')
	} else {
		r.check("marshal BENCH_PR6.json", false)
	}
	return r
}

// stats converts a run into its artifact form.
func (b batchRun) stats() batchStats {
	rps := 0.0
	if b.secs > 0 {
		rps = float64(b.rowsShipped) / b.secs
	}
	return batchStats{
		Seconds:      b.secs,
		RowsPerSec:   rps,
		AllocsPerRow: b.allocsPerRow,
		BytesPerRow:  b.bytesPerRow,
		PayloadBytes: b.payloadBytes,
	}
}

// runBatchPoint measures one sweep point over fresh provider bases, then
// evaluates the same query centrally over their union for the oracle
// check.
func runBatchPoint(chains, providers, props int) batchRun {
	syn := gen.NewSynthetic(props, false)
	bases := syn.Bases(providers, chains, gen.Horizontal)
	out := measureBatchPoint(syn, bases)
	out.oracleDigest = rowDigest(oracleAnswer(syn, bases))
	return out
}

// measureBatchPoint builds a system over bases — one simple peer per
// base, each holding a horizontal slice of the chains, plus a client root
// P0 with no base so every result row is shipped — and executes the
// unoptimized chain query (unions and join at the root, no join
// push-down) once, measuring wall time and allocator cost around the
// Execute call only. Parallelism 1 keeps dispatch order, and therefore
// the digest, deterministic. The system is garbage once it returns.
func measureBatchPoint(syn *gen.Synthetic, bases map[pattern.PeerID]*rdf.Base) batchRun {
	net := network.New()
	var nodes []*peer.Peer
	for id, base := range bases {
		p, err := peer.New(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: syn.Schema,
			Base: base, Parallelism: 1}, net)
		if err != nil {
			panic(err)
		}
		// The 256-row default frame is tuned for interactive first-row
		// latency and would charge thousands of packet envelopes at the
		// headline point, measuring the envelope codec instead of the
		// data plane. 1024 keeps frame payloads under the allocator's
		// 32KB large-object threshold.
		p.Engine.BatchSize = 1024
		nodes = append(nodes, p)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	p0, err := peer.New(peer.Config{ID: "P0", Kind: peer.ClientPeer, Schema: syn.Schema,
		Parallelism: 1}, net)
	if err != nil {
		panic(err)
	}
	p0.Engine.BatchSize = 1024
	for _, p := range nodes {
		p0.Learn(p.Advertisement())
	}
	pr, err := p0.PlanQuery(syn.Query(1, syn.NProps))
	if err != nil {
		panic(err)
	}

	runtime.GC()
	before := obs.ReadAllocs()
	clock := StartClock()
	rows, execErr := p0.Engine.Execute(pr.Raw)
	secs := clock.Seconds()
	delta := obs.ReadAllocs().Delta(before)
	if execErr != nil {
		panic(execErr)
	}

	m := p0.Engine.Metrics()
	out := batchRun{secs: secs, rowsShipped: m.RowsShipped, answerRows: rows.Len()}
	out.allocsPerRow, out.bytesPerRow = delta.PerOp(m.RowsShipped)
	for _, p := range nodes {
		out.payloadBytes += p.Channels.Stats().PayloadBytesSent
	}
	out.digest = rowDigest(rows)
	return out
}

// oracleAnswer evaluates the chain query centrally over the union of the
// bases. It folds every base into the lowest-id one instead of copying
// them all into a fresh base, collecting each spent base before the next
// fold, so the oracle never holds a second copy of the data (at the
// headline point the bases alone take gigabytes). The bases are spent
// afterwards.
func oracleAnswer(syn *gen.Synthetic, bases map[pattern.PeerID]*rdf.Base) *rql.ResultSet {
	ids := make([]pattern.PeerID, 0, len(bases))
	for id := range bases {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	union := bases[ids[0]]
	for _, id := range ids[1:] {
		// Frees the base folded last (and, first time round, the
		// measured system).
		runtime.GC()
		union.AddAll(bases[id].Triples())
		delete(bases, id)
	}
	runtime.GC()
	c, err := rql.ParseAndAnalyze(syn.RQL(1, syn.NProps), syn.Schema)
	if err != nil {
		panic(err)
	}
	rs, err := rql.Eval(c, union)
	if err != nil {
		panic(err)
	}
	return rs
}

// rowDigest folds the rendered, sorted answer rows into one fnv64a
// value: two answers agreeing on it are byte-identical.
func rowDigest(rows *rql.ResultSet) uint64 {
	h := fnv.New64a()
	for _, line := range rows.Sorted() {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
