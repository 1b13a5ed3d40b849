package main

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"sqpeer/internal/pattern"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// answer identifies a result by its row count and a digest of its rows,
// taken in sorted order so that row order does not matter.
type answer struct {
	rows   int
	digest uint64
}

// answerOf hashes every row (each variable with its term's kind, value
// and datatype) without rendering it, sorts the row hashes and folds
// them. Every answer of a bulk run is checked, so the check allocates
// only the hash slice: rendered rows would add harness garbage, and with
// it collector work, to the measured queries.
func answerOf(rs *rql.ResultSet) answer {
	rows := make([]uint64, len(rs.Rows))
	for i, r := range rs.Rows {
		h := uint64(fnvOffset)
		for _, v := range rs.Vars {
			t := r[v]
			h = fnvString(h, v)
			h = (h ^ uint64(t.Kind)) * fnvPrime
			h = fnvString(h, t.Value)
			h = fnvString(h, string(t.Datatype))
		}
		rows[i] = h
	}
	slices.Sort(rows)
	h := uint64(fnvOffset)
	for _, x := range rows {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (x >> s & 0xff)) * fnvPrime
		}
	}
	return answer{rows: rs.Len(), digest: h}
}

// FNV-1a, 64 bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvString folds s and a terminating zero byte into h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h * fnvPrime
}

// oracle holds the centralized truth for every query a workload may
// pose: rql.Eval over the union of all bases. Writes rewrite a statement
// in place, so the union, and with it the truth, never changes.
type oracle map[string]answer

func buildOracle(schema *rdf.Schema, bases map[pattern.PeerID]*rdf.Base, queries []string) (oracle, error) {
	union := unionOf(bases)
	o := oracle{}
	for _, q := range queries {
		c, err := rql.ParseAndAnalyze(q, schema)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		rs, err := rql.Eval(c, union)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		o[q] = answerOf(rs)
	}
	return o, nil
}

// unionOf copies every base into one.
func unionOf(bases map[pattern.PeerID]*rdf.Base) *rdf.Base {
	union := rdf.NewBase()
	for _, b := range bases {
		union.AddAll(b.Triples())
	}
	return union
}

// check reports whether a facade answer equals the truth.
func (o oracle) check(q string, rs *rql.ResultSet) bool {
	want, ok := o[q]
	return ok && answerOf(rs) == want
}

// corruptOne flips the expected digest of the first query in sorted
// order; the self-test uses it to prove mismatches are counted.
func (o oracle) corruptOne() {
	qs := make([]string, 0, len(o))
	for q := range o {
		qs = append(qs, q)
	}
	sort.Strings(qs)
	a := o[qs[0]]
	a.digest ^= 1
	o[qs[0]] = a
}

// digestSet folds the answers a run received, one per distinct query, into
// one workload digest: same-seed reruns, and bulk_tcp against
// bulk_inproc, must agree on it.
type digestSet map[string]answer

func (d digestSet) note(q string, rs *rql.ResultSet) {
	if _, ok := d[q]; !ok {
		d[q] = answerOf(rs)
	}
}

func (d digestSet) sum() uint64 {
	qs := make([]string, 0, len(d))
	for q := range d {
		qs = append(qs, q)
	}
	sort.Strings(qs)
	h := fnv.New64a()
	for _, q := range qs {
		fmt.Fprintf(h, "%s\x00%d\x00%016x\n", q, d[q].rows, d[q].digest)
	}
	return h.Sum64()
}
