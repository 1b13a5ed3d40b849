package optimizer

import (
	"fmt"
	"math"

	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
	"sqpeer/internal/stats"
)

// ShippingPolicy selects where joins execute (paper §2.5, Figure 5).
type ShippingPolicy int

const (
	// DataShipping executes every join at the plan's root peer: input
	// peers ship their raw results up.
	DataShipping ShippingPolicy = iota
	// QueryShipping pushes each join down to the peer of the largest
	// estimated scan below it, which gathers the other inputs, joins
	// locally, and ships only the (smaller) join result up.
	QueryShipping
	// HybridShipping decides per join by comparing estimated costs of all
	// candidate sites — the statistics-driven choice the paper describes.
	HybridShipping
)

// String names the policy.
func (s ShippingPolicy) String() string {
	switch s {
	case DataShipping:
		return "data-shipping"
	case QueryShipping:
		return "query-shipping"
	case HybridShipping:
		return "hybrid-shipping"
	default:
		return fmt.Sprintf("policy(%d)", int(s))
	}
}

// CostModel estimates plan execution cost in milliseconds from catalog
// statistics. All knobs have sensible defaults via NewCostModel.
type CostModel struct {
	// Catalog supplies cardinalities, link costs and peer loads.
	Catalog *stats.Catalog
	// BytesPerRow approximates the wire size of one result row.
	BytesPerRow int
	// PerRowMS is the processing cost of one row at an idle peer.
	PerRowMS float64
	// DefaultSelectivity is used for joins with no statistics.
	DefaultSelectivity float64
}

// NewCostModel returns a cost model over the catalog with defaults.
func NewCostModel(cat *stats.Catalog) *CostModel {
	return &CostModel{Catalog: cat, BytesPerRow: 128, PerRowMS: 0.01, DefaultSelectivity: 0.1}
}

// CardOf estimates the row cardinality a node produces.
func (cm *CostModel) CardOf(n plan.Node) float64 {
	switch v := n.(type) {
	case *plan.Scan:
		if v.IsHole() {
			return 0
		}
		card := float64(cm.Catalog.Card(v.Peer, v.Patterns[0].Property))
		for i := 1; i < len(v.Patterns); i++ {
			c := float64(cm.Catalog.Card(v.Peer, v.Patterns[i].Property))
			sel := cm.Catalog.JoinSelectivity(v.Peer, v.Patterns[i-1].Property, v.Patterns[i].Property)
			card = card * c * sel
		}
		return card
	case *plan.Union:
		sum := 0.0
		for _, in := range v.Inputs {
			sum += cm.CardOf(in)
		}
		return sum
	case *plan.Join:
		card := cm.CardOf(v.Inputs[0])
		for i, in := range v.Inputs[1:] {
			card = card * cm.CardOf(in) * cm.joinSelectivity(v.Inputs[i], in)
		}
		return card
	default:
		return 0
	}
}

// joinSelectivity estimates the selectivity of joining two plan inputs.
// When both are scans it uses the standard containment-of-values estimate
// over the peers' advertised distinct counts (1/max of the join-column
// distincts); otherwise it falls back to DefaultSelectivity.
func (cm *CostModel) joinSelectivity(left, right plan.Node) float64 {
	ls, lok := left.(*plan.Scan)
	rs, rok := right.(*plan.Scan)
	if !lok || !rok || ls.IsHole() || rs.IsHole() {
		return cm.DefaultSelectivity
	}
	lp := cm.Catalog.Peer(ls.Peer)
	rp := cm.Catalog.Peer(rs.Peer)
	if lp == nil || rp == nil {
		return cm.DefaultSelectivity
	}
	// Join column: the objects of the left scan's last pattern meet the
	// subjects of the right scan's first pattern (the chain-join case the
	// paper's plans produce).
	d1 := lp.DistinctObjects[ls.Patterns[len(ls.Patterns)-1].Property]
	d2 := rp.DistinctSubjects[rs.Patterns[0].Property]
	m := d1
	if d2 > m {
		m = d2
	}
	if m == 0 {
		return cm.DefaultSelectivity
	}
	return 1.0 / float64(m)
}

// BytesOf estimates a node's result payload size.
func (cm *CostModel) BytesOf(n plan.Node) float64 {
	return cm.CardOf(n) * float64(cm.BytesPerRow)
}

// Decision records where one join was placed and why.
type Decision struct {
	// Join renders the join that was placed.
	Join string
	// Site is the chosen execution peer.
	Site pattern.PeerID
	// CostMS is the estimated subtree cost with that placement.
	CostMS float64
}

// CostReport is the outcome of a cost estimation: the total and the
// per-join placements.
type CostReport struct {
	// TotalMS estimates end-to-end execution time contributions charged
	// by the model (transfers + processing; pipelining ignored).
	TotalMS float64
	// Decisions records join placements in visit order.
	Decisions []Decision
}

// EstimateCost estimates the cost of executing the plan rooted at root
// with results delivered to rootPeer under the given shipping policy.
// Every join is placed by JoinSite, the rule the executor follows too.
func (cm *CostModel) EstimateCost(root plan.Node, rootPeer pattern.PeerID, policy ShippingPolicy) CostReport {
	rep := &CostReport{}
	rep.TotalMS = cm.cost(root, rootPeer, policy, rep)
	return *rep
}

// cost returns the time to produce node n's result at site execSite (the
// consumer).
func (cm *CostModel) cost(n plan.Node, execSite pattern.PeerID, policy ShippingPolicy, rep *CostReport) float64 {
	switch v := n.(type) {
	case *plan.Scan:
		if v.IsHole() {
			return 0
		}
		card := cm.CardOf(v)
		proc := card * cm.PerRowMS * cm.Catalog.Peer(v.Peer).LoadFactor()
		ship := cm.Catalog.TransferMS(v.Peer, execSite, int(cm.BytesOf(v)))
		return proc + ship
	case *plan.Union:
		total := 0.0
		for _, in := range v.Inputs {
			total += cm.cost(in, execSite, policy, rep)
		}
		// Merging rows at the consumer.
		total += cm.CardOf(v) * cm.PerRowMS * cm.Catalog.Peer(execSite).LoadFactor()
		return total
	case *plan.Join:
		site := cm.JoinSite(v, execSite, policy)
		cost := cm.joinCostAt(v, site, execSite, policy, rep)
		rep.Decisions = append(rep.Decisions, Decision{Join: v.String(), Site: site, CostMS: cost})
		return cost
	default:
		return 0
	}
}

// joinCostAt returns the cost of computing join j at site — its inputs
// delivered there and joined there — and shipping the result to
// execSite. Placements below j are recorded into rep.
func (cm *CostModel) joinCostAt(j *plan.Join, site, execSite pattern.PeerID, policy ShippingPolicy, rep *CostReport) float64 {
	total := 0.0
	inputRows := 0.0
	for _, in := range j.Inputs {
		total += cm.cost(in, site, policy, rep)
		inputRows += cm.CardOf(in)
	}
	total += inputRows * cm.PerRowMS * cm.Catalog.Peer(site).LoadFactor()
	total += cm.Catalog.TransferMS(site, execSite, int(cm.CardOf(j)*float64(cm.BytesPerRow)))
	return total
}

// JoinSite is the one join-placement rule: the peer at which policy
// evaluates join j when its result is consumed at execSite. The executor
// ships a join to this site and EstimateCost prices it there, so the
// estimate and the execution agree. A nil model has no statistics and
// places every join at execSite, whatever the policy.
func (cm *CostModel) JoinSite(j *plan.Join, execSite pattern.PeerID, policy ShippingPolicy) pattern.PeerID {
	if cm == nil {
		return execSite
	}
	switch policy {
	case DataShipping:
		return execSite
	case QueryShipping:
		// Push the join to the data: the peer of the largest estimated
		// scan anywhere below it, holes skipped.
		best := execSite
		bestCard := -1.0
		for _, s := range plan.Scans(j) {
			if s.IsHole() {
				continue
			}
			if c := cm.CardOf(s); c > bestCard {
				bestCard = c
				best = s.Peer
			}
		}
		return best
	default: // HybridShipping: the cheapest candidate site
		best := execSite
		bestCost := math.Inf(1)
		for _, cand := range cm.candidateSites(j, execSite) {
			// Placements below are re-derived per candidate; a throwaway
			// report keeps discarded candidates' decisions out of the
			// caller's.
			if c := cm.joinCostAt(j, cand, execSite, policy, &CostReport{}); c < bestCost {
				bestCost = c
				best = cand
			}
		}
		return best
	}
}

// candidateSites enumerates the consumer site plus every peer scanned
// below the join, deduplicated, in deterministic order.
func (cm *CostModel) candidateSites(j *plan.Join, execSite pattern.PeerID) []pattern.PeerID {
	out := []pattern.PeerID{execSite}
	seen := map[pattern.PeerID]bool{execSite: true}
	for _, s := range plan.Scans(j) {
		if !s.IsHole() && !seen[s.Peer] {
			seen[s.Peer] = true
			out = append(out, s.Peer)
		}
	}
	return out
}

// ChoosePolicy compares the three shipping policies for a plan and
// returns the cheapest with its report — the compile-time decision of
// §2.5 ("a peer node can decide at compile-time between data, query or
// hybrid shipping execution policies").
func (cm *CostModel) ChoosePolicy(root plan.Node, rootPeer pattern.PeerID) (ShippingPolicy, CostReport) {
	bestPolicy := DataShipping
	bestRep := cm.EstimateCost(root, rootPeer, DataShipping)
	for _, pol := range []ShippingPolicy{QueryShipping, HybridShipping} {
		rep := cm.EstimateCost(root, rootPeer, pol)
		if rep.TotalMS < bestRep.TotalMS {
			bestPolicy, bestRep = pol, rep
		}
	}
	return bestPolicy, bestRep
}
