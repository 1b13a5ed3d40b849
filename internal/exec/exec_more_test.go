package exec_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sqpeer/internal/exec"
	"sqpeer/internal/gen"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/rdf"
	"sqpeer/internal/stats"
)

func TestErrorTypesRender(t *testing.T) {
	cause := fmt.Errorf("socket reset")
	pf := &exec.PeerFailure{Peer: "P9", Err: cause}
	if !strings.Contains(pf.Error(), "P9") || !strings.Contains(pf.Error(), "socket reset") {
		t.Errorf("PeerFailure.Error = %q", pf.Error())
	}
	if !errors.Is(pf, cause) {
		t.Error("Unwrap broken")
	}
	he := &exec.HoleError{PatternIDs: []string{"Q2"}}
	if !strings.Contains(he.Error(), "Q2") {
		t.Errorf("HoleError.Error = %q", he.Error())
	}
	// Wrapped failures are still found by the adaptation loop.
	wrapped := fmt.Errorf("outer: %w", pf)
	var back *exec.PeerFailure
	if !errors.As(wrapped, &back) || back.Peer != "P9" {
		t.Error("wrapped PeerFailure lost")
	}
}

func TestResetMetrics(t *testing.T) {
	peers, _ := paperSystem(t, 2)
	p1 := peers["P1"]
	if _, err := p1.Ask(gen.PaperRQL); err != nil {
		t.Fatal(err)
	}
	if p1.Engine.Metrics().ChannelsOpened == 0 {
		t.Fatal("no activity recorded")
	}
	p1.Engine.ResetMetrics()
	if m := p1.Engine.Metrics(); m != (exec.Metrics{}) {
		t.Errorf("metrics after reset = %+v", m)
	}
}

func TestHybridShippingPlacesJoinRemotely(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p1 := peers["P1"]
	p1.Engine.Policy = optimizer.HybridShipping
	// Make P2's data huge in P1's catalog so the cost model pushes the
	// join to P2, and the P1–P3 link slow so data shipping loses.
	p1.Catalog.PutLink("P1", "P3", stats.Link{LatencyMS: 900, BandwidthKBps: 5})
	q := gen.PaperQuery()
	j := plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P3"))
	rows, err := p1.Engine.Execute(&plan.Plan{Root: j, Query: q})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rows.Len() != 3 {
		t.Errorf("hybrid-shipped join = %d rows", rows.Len())
	}
}

func TestQueryShippingFallsBackWithoutRemoteScans(t *testing.T) {
	peers, _ := paperSystem(t, 2)
	p1 := peers["P1"]
	p1.Engine.Policy = optimizer.QueryShipping
	p1.Engine.Cost = nil // no statistics: every join stays at the root
	q := gen.PaperQuery()
	// Both scans local: the join must stay at P1.
	j := plan.NewJoin(plan.NewScan(q.Patterns[0], "P1"), plan.NewScan(q.Patterns[1], "P1"))
	rows, err := p1.Engine.Execute(&plan.Plan{Root: j, Query: q})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rows.Len() != 2 {
		t.Errorf("local join under query shipping = %d rows", rows.Len())
	}
	if m := p1.Engine.Metrics(); m.SubplansShipped != 0 {
		t.Errorf("local-only plan shipped %d subplans", m.SubplansShipped)
	}
}

// TestEstimateAndExecutionAgreeOnJoinSite: under every policy, on the
// paper query's raw and optimized plans, each outermost join runs where
// EstimateCost placed it — both follow optimizer.JoinSite. A join shipped
// away from the root shows in the ledger under its site; a join the
// estimate keeps at the root is never shipped.
func TestEstimateAndExecutionAgreeOnJoinSite(t *testing.T) {
	for _, policy := range []optimizer.ShippingPolicy{
		optimizer.DataShipping, optimizer.QueryShipping, optimizer.HybridShipping,
	} {
		for _, which := range []string{"raw", "optimized"} {
			t.Run(policy.String()+"/"+which, func(t *testing.T) {
				peers, _ := paperSystem(t, 3)
				p1 := peers["P1"]
				p1.Engine.Policy = policy
				// P1 has learned that P2 holds by far the most prop1 data,
				// so query shipping pushes every join over a P2 scan there.
				// Freezing the catalog (no piggybacked refresh mid-run)
				// keeps estimate and execution on the same statistics.
				p1.Catalog.PutPeer(&stats.PeerStats{Peer: "P2", Slots: 4,
					PropertyCard: map[rdf.IRI]int{gen.N1("prop1"): 1000}})
				p1.Engine.StatsSink = nil
				pr, err := p1.PlanQuery(gen.PaperQuery())
				if err != nil {
					t.Fatalf("PlanQuery: %v", err)
				}
				pl := pr.Raw
				if which == "optimized" {
					pl = pr.Optimized
				}
				estimated := map[string]pattern.PeerID{}
				for _, d := range p1.Engine.Cost.EstimateCost(pl.Root, p1.ID, policy).Decisions {
					estimated[d.Join] = d.Site
				}
				if _, err := p1.Engine.Execute(pl); err != nil {
					t.Fatalf("Execute: %v", err)
				}
				shipped := map[string]pattern.PeerID{}
				for _, ent := range p1.Engine.Ledger() {
					if ent.Outcome == "complete" {
						shipped[ent.Subplan] = ent.Site
					}
				}
				joins := outermostJoins(pl.Root)
				if len(joins) == 0 {
					t.Fatal("plan has no join; the test is vacuous")
				}
				for _, j := range joins {
					want, ok := estimated[j.String()]
					if !ok {
						t.Fatalf("EstimateCost recorded no decision for %s", j)
					}
					got, ok := shipped[j.String()]
					if !ok {
						got = p1.ID // not shipped: the join ran at the root
					}
					if got != want {
						t.Errorf("%s: estimate places it at %s, execution ran it at %s", j, want, got)
					}
				}
			})
		}
	}
}

// outermostJoins returns the joins of a plan not nested under another
// join, in plan order.
func outermostJoins(n plan.Node) []*plan.Join {
	switch v := n.(type) {
	case *plan.Join:
		return []*plan.Join{v}
	case *plan.Union:
		var out []*plan.Join
		for _, in := range v.Inputs {
			out = append(out, outermostJoins(in)...)
		}
		return out
	default:
		return nil
	}
}

func TestSubplanMemoization(t *testing.T) {
	peers, _ := paperSystem(t, 3)
	p1 := peers["P1"]
	q := gen.PaperQuery()
	// The same remote scan appears under two union branches: it must be
	// shipped once.
	u := plan.NewUnion(
		plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P3")),
		plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P1")),
	)
	if _, err := p1.Engine.Execute(&plan.Plan{Root: u, Query: q}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	m := p1.Engine.Metrics()
	// Q1@P2 memoized across branches; Q2@P3 shipped once: 2 subplans.
	if m.SubplansShipped != 2 {
		t.Errorf("SubplansShipped = %d, want 2 (memoized)", m.SubplansShipped)
	}
}

func TestRemoteFailurePacketSurfacesAsPeerFailure(t *testing.T) {
	peers, _ := paperSystem(t, 2)
	p1 := peers["P1"]
	p1.Engine.Router = nil // disable adaptation to observe the raw error
	q := gen.PaperQuery()
	// Ship P2 a subplan whose own remote leg (P3) is dead: P2 reports a
	// Failure packet, which P1 sees as a peer failure.
	peers["P2"].Net.Fail("P3")
	j := plan.NewJoin(plan.NewScan(q.Patterns[0], "P2"), plan.NewScan(q.Patterns[1], "P3"))
	// Force query shipping so the whole join goes to P2.
	p1.Engine.Policy = optimizer.QueryShipping
	_, err := p1.Engine.Execute(&plan.Plan{Root: j, Query: q})
	var pf *exec.PeerFailure
	if !errors.As(err, &pf) {
		t.Fatalf("want PeerFailure, got %v", err)
	}
}

func TestExecuteUnknownPlanQueryProjectionsNil(t *testing.T) {
	peers, _ := paperSystem(t, 2)
	p1 := peers["P1"]
	q := gen.PaperQuery()
	// Plans without projections return full rows.
	noProj := &pattern.QueryPattern{SchemaName: q.SchemaName, Patterns: q.Patterns}
	pl := &plan.Plan{Root: plan.NewScan(q.Patterns[0], "P1"), Query: noProj}
	rows, err := p1.Engine.Execute(pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Vars) != 2 {
		t.Errorf("unprojected vars = %v", rows.Vars)
	}
}
