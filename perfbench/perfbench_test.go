package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// testScale shrinks every workload so the whole suite runs in seconds.
var testScale = scale{
	bulkChains: 300, bulkPeers: 4,
	mixChains: 40, mixPeers: 16, mixProps: 8,
	bulkSetups: 2, mixSetups: 2,
	stageMinTime: 5 * time.Millisecond,
}

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func runSmall(t *testing.T, workload string, trace, corrupt bool) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: 3, seconds: 0.5, trace: trace,
		spans: t.TempDir() + "/spans.jsonl", scale: testScale, corrupt: corrupt}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

// TestEveryMetricEmitted checks that each workload reports exactly the
// metrics BENCHMARK.json names, with their units, and answers correctly.
func TestEveryMetricEmitted(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !equalSets(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := runSmall(t, w, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if trace {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not in BENCHMARK.json", w, trace, name)
				}
			}
		}
	}
}

// TestCorruptAnswerFails checks that a wrong expected answer is counted.
func TestCorruptAnswerFails(t *testing.T) {
	res := runSmall(t, bulkInproc, false, true)
	if res.Failed == 0 || res.Correct {
		t.Fatalf("corrupted oracle: failed=%d correct=%v, want failures", res.Failed, res.Correct)
	}
}

// TestTCPAnswersMatchInproc checks that the loopback bridge changes no
// answer: same seed, same workload digest.
func TestTCPAnswersMatchInproc(t *testing.T) {
	in, tcp := runSmall(t, bulkInproc, false, false), runSmall(t, bulkTCP, false, false)
	if in.digest == 0 || in.digest != tcp.digest {
		t.Fatalf("answer digests differ: bulk_inproc %016x, bulk_tcp %016x", in.digest, tcp.digest)
	}
}

// TestAnswerOf checks that the answer digest ignores row order and sees a
// changed term.
func TestAnswerOf(t *testing.T) {
	rs := func(objs ...string) *rql.ResultSet {
		out := rql.NewResultSet("x", "y")
		for _, o := range objs {
			out.Rows = append(out.Rows, rql.Row{"x": rdf.NewIRI("s"), "y": rdf.NewIRI(rdf.IRI(o))})
		}
		return out
	}
	a, b, c := answerOf(rs("a", "b")), answerOf(rs("b", "a")), answerOf(rs("a", "c"))
	if a != b {
		t.Fatalf("row order changed the digest: %+v vs %+v", a, b)
	}
	if a == c || a.rows != 2 {
		t.Fatalf("changed term kept the digest or row count is wrong: %+v vs %+v", a, c)
	}
}

// TestTailsKeepTenBeyond checks that every workload's tail percentiles
// have at least ten samples beyond them at the minimum sample count.
func TestTailsKeepTenBeyond(t *testing.T) {
	for _, w := range workloadNames {
		tl, ok := tails[w]
		if !ok {
			t.Fatalf("%s: no tail percentiles", w)
		}
		for _, p := range []float64{tl.query, tl.write} {
			xs := make([]float64, minSamples(p))
			for i := range xs {
				xs[i] = float64(i)
			}
			if n := beyond(xs, hdQuantile(xs, p/100)); n < 10 {
				t.Errorf("%s: p%g of %d samples has %d beyond, want at least 10", w, p, len(xs), n)
			}
		}
	}
}

func TestHDQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10, 20, 30, 40}
	if got := hdQuantile(xs, 0.5); got < 4 || got > 10 {
		t.Fatalf("median of %v = %g, want within the middle pair", xs, got)
	}
	sym := []float64{-3, -1, 0, 1, 3}
	if got := hdQuantile(sym, 0.5); got > 1e-9 || got < -1e-9 {
		t.Fatalf("median of symmetric %v = %g, want 0", sym, got)
	}
	prev := hdQuantile(xs, 0.01)
	for _, p := range []float64{0.25, 0.5, 0.75, 0.99} {
		q := hdQuantile(xs, p)
		if q < prev || q > 40 {
			t.Fatalf("quantile %g = %g, not monotone within the sample", p, q)
		}
		prev = q
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
