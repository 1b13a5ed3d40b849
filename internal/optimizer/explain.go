package optimizer

import (
	"fmt"
	"strings"

	"sqpeer/internal/pattern"
	"sqpeer/internal/plan"
)

// Explain renders a plan tree with the cost model's per-node estimates —
// cardinality, payload bytes and, for joins, the site each shipping
// policy would choose. It is the inspection surface behind the CLI's
// -explain flag.
func (cm *CostModel) Explain(root plan.Node, rootPeer pattern.PeerID) string {
	var b strings.Builder
	dataRep := cm.EstimateCost(root, rootPeer, DataShipping)
	queryRep := cm.EstimateCost(root, rootPeer, QueryShipping)
	hybridRep := cm.EstimateCost(root, rootPeer, HybridShipping)
	fmt.Fprintf(&b, "plan rooted at %s\n", rootPeer)
	fmt.Fprintf(&b, "estimated cost: data=%.1fms query=%.1fms hybrid=%.1fms\n",
		dataRep.TotalMS, queryRep.TotalMS, hybridRep.TotalMS)
	var rec func(n plan.Node, depth int)
	rec = func(n plan.Node, depth int) {
		pad := strings.Repeat("  ", depth)
		switch v := n.(type) {
		case *plan.Scan:
			fmt.Fprintf(&b, "%s%-24s rows≈%-8.0f bytes≈%.0f\n",
				pad, v.String(), cm.CardOf(v), cm.BytesOf(v))
		case *plan.Union:
			fmt.Fprintf(&b, "%s∪ %-22s rows≈%.0f\n", pad, "", cm.CardOf(v))
			for _, in := range v.Inputs {
				rec(in, depth+1)
			}
		case *plan.Join:
			site := cm.JoinSite(v, rootPeer, HybridShipping)
			fmt.Fprintf(&b, "%s⋈ %-22s rows≈%-8.0f hybrid-site=%s\n", pad, "", cm.CardOf(v), site)
			for _, in := range v.Inputs {
				rec(in, depth+1)
			}
		default:
			fmt.Fprintf(&b, "%s%s\n", pad, n)
		}
	}
	rec(root, 0)
	return b.String()
}
