package exec_test

import (
	"testing"

	"sqpeer/internal/faults"
	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
)

// TestBatchStreamSurvivesReorderDuplication feeds the columnar data
// plane through the PR 4 adversarial wire: every chan.packet delivery is
// duplicated and half get delay spikes, while multi-frame batch streams
// (BatchSize=2 forces several frames per peer) carry the answer. The
// channel-layer dedup must suppress every replayed frame, so the answer
// matches ground truth exactly and no row is double-collected.
func TestBatchStreamSurvivesReorderDuplication(t *testing.T) {
	const seed = 20240805
	peers, net := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.Parallelism = 1
	p1.Engine.BatchSize = 2
	inj := faults.NewInjector(seed, faults.Rates{Duplicate: 1, DelaySpike: 0.5, SpikeMS: 300})
	net.SetInjector(inj)

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute under duplication: %v", err)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	if !sameRows(rows, want) {
		t.Fatalf("batched answer diverged under duplication:\n got %v\nwant %v",
			rows.Sorted(), want.Sorted())
	}
	if inj.Stats().Duplicated == 0 {
		t.Fatal("injector duplicated nothing; the test is vacuous")
	}
	if dup := p1.Channels.Stats().PacketsDuplicate; dup == 0 {
		t.Error("expected the channel layer to have suppressed duplicated batch frames")
	}
}

// TestBatchResumeAtBatchBoundary kills one mid-stream batch frame and
// checks the retry resumes at the frame boundary: the checkpoint the
// root carries is the contiguous rows of the frames that made it
// (a multiple of BatchSize), the destination honors it, and the ledger
// reconciles exactly-once delivery of every row.
func TestBatchResumeAtBatchBoundary(t *testing.T) {
	const batchSize = 2
	peers, net := paperSystem(t, 4)
	p1 := peers["P1"]
	p1.Engine.Parallelism = 1
	p1.Engine.MaxRetries = 2
	p1.Engine.BatchSize = batchSize
	// Drop P4's second chan.packet: the first batch frame (batchSize rows)
	// reaches the root, the second dies on the wire.
	net.SetInjector(faults.NewScript(&faults.ScriptRule{
		From: "P4", Kind: "chan.packet", After: 1, Count: 1,
		Fault: network.Fault{Drop: true},
	}))

	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute with one dropped frame: %v", err)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	if !sameRows(rows, want) {
		t.Fatalf("resumed batch answer diverged:\n got %v\nwant %v", rows.Sorted(), want.Sorted())
	}
	m := p1.Engine.Metrics()
	if m.Resumes == 0 {
		t.Fatalf("expected the retry to resume from the frame checkpoint, got %+v", m)
	}
	if m.RowsRetained == 0 || m.RowsRetained%batchSize != 0 {
		t.Errorf("retained prefix %d rows; want a positive multiple of the %d-row frame size",
			m.RowsRetained, batchSize)
	}
	// The ledger must account every P4 row exactly once across the
	// resumed dispatch: one "complete" entry whose row count equals the
	// full subplan answer (prefix + resumed remainder), flagged Resumed.
	resumed := false
	for _, ent := range p1.Engine.Ledger() {
		if ent.Outcome == "complete" && ent.Resumed {
			resumed = true
			if ent.Rows == 0 {
				t.Error("resumed ledger entry accounts zero rows")
			}
		}
	}
	if !resumed {
		t.Error("ledger records no resumed completion")
	}
}

// TestBatchPlaneMatchesGroundTruth streams every subplan answer in
// two-row frames, so each peer's reply spans several batch frames, and
// checks the reassembled distributed answer against centralized
// evaluation over the union of the bases, on both the raw and the
// optimized plan.
func TestBatchPlaneMatchesGroundTruth(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	for _, p := range peers {
		p.Engine.BatchSize = 2
	}
	p1 := peers["P1"]
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	for name, pl := range map[string]*plan.Plan{"raw": pr.Raw, "optimized": pr.Optimized} {
		rows, err := p1.Engine.Execute(pl)
		if err != nil {
			t.Fatalf("Execute %s: %v", name, err)
		}
		if !sameRows(rows, want) {
			t.Errorf("%s answer diverged from ground truth:\n got %v\nwant %v", name, rows.Sorted(), want.Sorted())
		}
	}
}

// TestMixedModePeersInteroperate runs a fleet whose peers stream with
// different settings: one-row frames and a one-frame window beside
// two-row frames and the defaults. Every Results frame carries its own
// row count and term dictionary, so the root reassembles the
// heterogeneous streams without any per-peer agreement, and rolling a
// fleet between streaming settings never corrupts answers.
func TestMixedModePeersInteroperate(t *testing.T) {
	type mode struct{ batch, window int }
	dests := map[pattern.PeerID]mode{"P2": {1, 1}, "P3": {2, 4}, "P4": {0, 0}}
	for _, tc := range []struct {
		name string
		root mode
	}{
		{"one-row-root/mixed-dests", mode{1, 1}},
		{"default-root/mixed-dests", mode{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peers, _ := paperSystem(t, 3)
			for id, p := range peers {
				m, ok := dests[id]
				if !ok {
					m = tc.root
				}
				p.Engine.BatchSize, p.Engine.WindowSize = m.batch, m.window
			}
			p1 := peers["P1"]
			pr, err := p1.PlanQuery(gen.PaperQuery())
			if err != nil {
				t.Fatalf("PlanQuery: %v", err)
			}
			rows, err := p1.Engine.Execute(pr.Optimized)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			want := groundTruth(t, peers, gen.PaperRQL)
			if !sameRows(rows, want) {
				t.Fatalf("mixed-mode answer diverged:\n got %v\nwant %v", rows.Sorted(), want.Sorted())
			}
			if m := p1.Engine.Metrics(); m.Retries != 0 || m.Replans != 0 {
				t.Errorf("fault-free mixed-mode run should not retry or replan: %+v", m)
			}
		})
	}
}

// TestBackpressureWindowBoundsStream sanity-checks the windowed streamer
// on a result far larger than the window: many frames, tiny window, and
// the answer still arrives complete and exactly once.
func TestBackpressureWindowBoundsStream(t *testing.T) {
	peers, _ := paperSystem(t, 8)
	p1 := peers["P1"]
	p1.Engine.Parallelism = 1
	p1.Engine.BatchSize = 1 // one frame per row: stream length >> window
	p1.Engine.WindowSize = 2
	for _, p := range peers {
		p.Engine.BatchSize = 1
		p.Engine.WindowSize = 2
	}
	pr, err := p1.PlanQuery(gen.PaperQuery())
	if err != nil {
		t.Fatalf("PlanQuery: %v", err)
	}
	rows, err := p1.Engine.Execute(pr.Optimized)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want := groundTruth(t, peers, gen.PaperRQL)
	if !sameRows(rows, want) {
		t.Fatalf("windowed stream diverged:\n got %v\nwant %v", rows.Sorted(), want.Sorted())
	}
	if m := p1.Engine.Metrics(); m.Retries != 0 || m.Replans != 0 {
		t.Errorf("fault-free windowed run should not retry or replan: %+v", m)
	}
}
