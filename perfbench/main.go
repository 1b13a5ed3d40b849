// Command perfbench is SQPeer's standing benchmark: wall-clock query
// serving through the peer facade, in process and over TCP loopback, with
// every answer checked against centralized evaluation over the union of
// the bases.
//
//	go run . --workload bulk_inproc --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports per-layer metrics from a traced pass. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics. The
// traced pass writes its spans to .bench_build/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	workload := flag.String("workload", "", "workload: bulk_inproc, bulk_tcp or serve_mix")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 20, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
	res, err := run(config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spans: spans, scale: fullScale}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
