package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sqpeer/internal/gen"
	"sqpeer/internal/network"
	"sqpeer/internal/overlay"
	"sqpeer/internal/pattern"
	"sqpeer/internal/peer"
	"sqpeer/internal/rdf"
)

// Workload names, as BENCHMARK.json lists them.
const (
	bulkInproc = "bulk_inproc"
	bulkTCP    = "bulk_tcp"
	serveMix   = "serve_mix"
)

var workloadNames = []string{bulkInproc, bulkTCP, serveMix}

// scale fixes the sizes of one benchmark configuration. The command line
// always uses fullScale; the self-test shrinks it.
type scale struct {
	bulkChains   int           // chains in the bulk workloads' union base
	bulkPeers    int           // providers holding the bulk base
	mixChains    int           // chains in serve_mix's union base
	mixPeers     int           // simple peers under serve_mix's super-peer
	mixProps     int           // chain length of serve_mix's schema
	bulkSetups   int           // setups per bulk run; setup_s is their median
	mixSetups    int           // setups per serve_mix run (each is short)
	stageMinTime time.Duration // minimum measuring time of one isolated stage
}

var fullScale = scale{
	bulkChains: 20000, bulkPeers: 4,
	mixChains: 300, mixPeers: 16, mixProps: 8,
	bulkSetups: 3, mixSetups: 9,
	stageMinTime: 200 * time.Millisecond,
}

// system is one workload's running peers. Every workload drives the same
// shape: an asking peer poses RQL text through the facade, and a write
// rewrites one stored statement at its owner, which then re-advertises.
type system struct {
	schema *rdf.Schema
	syn    *gen.Synthetic
	// nets are the networks the peers live on (two for bulk_tcp).
	nets []*network.Network
	// owners are the peers holding data, by id; bases their bases.
	owners map[pattern.PeerID]*peer.Peer
	bases  map[pattern.PeerID]*rdf.Base
	// ownerIDs is owners' key set, sorted; writeIDs the owners a write
	// may draw (seeded choices index into it).
	ownerIDs, writeIDs []pattern.PeerID
	// askers are the peers queries are posed at.
	askers []*peer.Peer
	// adTarget is where a written peer pushes its new advertisement.
	adTarget pattern.PeerID
	// super is serve_mix's super-peer (nil elsewhere).
	super *peer.Peer
	// queries are the RQL texts the workload draws from.
	queries []string
	// writable lists, per owner, the property statements a write may
	// rewrite (typing triples are left alone).
	writable map[pattern.PeerID][]rdf.Triple
	// bridge is bulk_tcp's loopback bridge (nil elsewhere).
	bridge *bridge
	// newPeer records the wall time of every peer.New call of the setup.
	newPeer []time.Duration
}

// triples counts the stored triples over every base.
func (s *system) triples() int {
	n := 0
	for _, b := range s.bases {
		n += b.Len()
	}
	return n
}

// close stops whatever the system started (the bridge's gateways and
// clients); peers on the in-process network own no goroutines.
func (s *system) close() error {
	if s.bridge == nil {
		return nil
	}
	return s.bridge.close()
}

// pickQuery draws the next query and the peer it is posed at.
func (s *system) pickQuery(rng *rand.Rand) (*peer.Peer, string) {
	at := s.askers[rng.Intn(len(s.askers))]
	return at, s.queries[rng.Intn(len(s.queries))]
}

// pickWrite draws the next write: an owner and one of its statements.
func (s *system) pickWrite(rng *rand.Rand) (*peer.Peer, rdf.Triple) {
	id := s.writeIDs[rng.Intn(len(s.writeIDs))]
	ts := s.writable[id]
	return s.owners[id], ts[rng.Intn(len(ts))]
}

// chainsFor jitters a chain count by up to 2% with the seed, so seeds
// differ in data size as well as in their choices.
func chainsFor(base int, rng *rand.Rand) int {
	return base + rng.Intn(base/50+1)
}

// setups is how many times a run sets the workload up.
func (sc scale) setups(workload string) int {
	if workload == serveMix {
		return sc.mixSetups
	}
	return sc.bulkSetups
}

// build constructs the named workload's system from the seed.
func build(workload string, sc scale, seed int64) (*system, error) {
	rng := gen.NewRNG(seed)
	if workload == serveMix {
		return buildMix(sc, chainsFor(sc.mixChains, rng))
	}
	return buildBulk(sc, chainsFor(sc.bulkChains, rng), workload == bulkTCP)
}

// newTimedPeer is peer.New with its wall time recorded in s.newPeer.
func (s *system) newTimedPeer(cfg peer.Config, net *network.Network) (*peer.Peer, error) {
	t := time.Now()
	p, err := peer.New(cfg, net)
	s.newPeer = append(s.newPeer, time.Since(t))
	if err != nil {
		return nil, fmt.Errorf("new peer %s: %w", cfg.ID, err)
	}
	return p, nil
}

// buildBulk places a 2-property chain base horizontally over the
// providers and gives a base-less client peer their advertisements.
// Over TCP the client lives on its own network, bridged to the
// providers' network through loopback gateways.
func buildBulk(sc scale, chains int, overTCP bool) (*system, error) {
	syn := gen.NewSynthetic(2, false)
	s := &system{schema: syn.Schema, syn: syn, owners: map[pattern.PeerID]*peer.Peer{}}
	s.bases = syn.Bases(sc.bulkPeers, chains, gen.Horizontal)
	provNet := network.New()
	clientNet := provNet
	s.nets = []*network.Network{provNet}
	if overTCP {
		clientNet = network.New()
		s.nets = append(s.nets, clientNet)
	}
	for id, b := range s.bases {
		p, err := s.newTimedPeer(peer.Config{ID: id, Kind: peer.SimplePeer, Schema: syn.Schema, Base: b}, provNet)
		if err != nil {
			return nil, err
		}
		s.owners[id] = p
	}
	s.ownerIDs = sortedIDs(s.owners)
	const clientID = pattern.PeerID("C")
	client, err := s.newTimedPeer(peer.Config{ID: clientID, Kind: peer.ClientPeer, Schema: syn.Schema}, clientNet)
	if err != nil {
		return nil, err
	}
	if overTCP {
		s.bridge, err = newBridge(provNet, clientNet, s.ownerIDs, []pattern.PeerID{clientID})
		if err != nil {
			return nil, err
		}
	}
	for _, id := range s.ownerIDs {
		if err := client.PullAdvertisement(id); err != nil {
			_ = s.close()
			return nil, err
		}
	}
	s.askers = []*peer.Peer{client}
	s.adTarget = clientID
	s.queries = []string{syn.RQL(1, 2)}
	return s, nil
}

// superID names serve_mix's one super-peer.
const superID = pattern.PeerID("SUPER")

// buildMix builds a hybrid SON: one super-peer and simple peers holding
// a mixed-distributed chain base over a schema with subproperties. Each
// simple peer pushes its advertisement to the super-peer on joining.
func buildMix(sc scale, chains int) (*system, error) {
	syn := gen.NewSynthetic(sc.mixProps, true)
	s := &system{schema: syn.Schema, syn: syn, owners: map[pattern.PeerID]*peer.Peer{}}
	s.bases = syn.Bases(sc.mixPeers, chains, gen.Mixed)
	net := network.New()
	s.nets = []*network.Network{net}
	son := overlay.NewHybrid(net, syn.Schema)
	t := time.Now()
	sp, err := son.AddSuperPeer(superID)
	s.newPeer = append(s.newPeer, time.Since(t))
	if err != nil {
		return nil, err
	}
	s.super = sp
	ids := make([]pattern.PeerID, 0, len(s.bases))
	for id := range s.bases {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t := time.Now()
		p, err := son.AddSimplePeer(id, s.bases[id], superID)
		s.newPeer = append(s.newPeer, time.Since(t))
		if err != nil {
			return nil, err
		}
		s.owners[id] = p
		s.askers = append(s.askers, p)
	}
	s.ownerIDs = ids
	s.adTarget = superID
	for length := 1; length <= 3; length++ {
		for start := 1; start+length-1 <= sc.mixProps; start++ {
			s.queries = append(s.queries, syn.RQL(start, length))
		}
	}
	return s, nil
}

// collectWritable lists every owner's property statements. It runs
// after the timed setup: it is the benchmark's bookkeeping, not the
// system's.
func (s *system) collectWritable() {
	s.writable = map[pattern.PeerID][]rdf.Triple{}
	for id, b := range s.bases {
		var ts []rdf.Triple
		for _, t := range b.Triples() {
			if _, ok := s.schema.PropertyByName(t.P.IRI()); ok {
				ts = append(ts, t)
			}
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i].String() < ts[j].String() })
		s.writable[id] = ts
	}
	// An owner with nothing to rewrite is never drawn for a write.
	s.writeIDs = nil
	for _, id := range s.ownerIDs {
		if len(s.writable[id]) > 0 {
			s.writeIDs = append(s.writeIDs, id)
		}
	}
}

func sortedIDs(m map[pattern.PeerID]*peer.Peer) []pattern.PeerID {
	out := make([]pattern.PeerID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
