package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"sqpeer/internal/channel"
	"sqpeer/internal/network"
	"sqpeer/internal/pattern"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// frameRows is the executor's default rows per shipped frame
// (exec.Engine.BatchSize zero value).
const frameRows = 256

// stageCost is one isolated stage's cost per unit of work (a row, or a
// payload byte for the transports).
type stageCost struct {
	ns, allocs, bytes float64
}

// measureStage runs fn until it has been timed for at least minTime and
// three times, and divides time and allocation by the units fn reports.
// prep runs untimed before every call.
func measureStage(minTime time.Duration, prep func(), fn func() (units int)) stageCost {
	var before, after runtime.MemStats
	var elapsed time.Duration
	var units int
	var allocs, bytes uint64
	for iter := 0; iter < 3 || elapsed < minTime; iter++ {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&before)
		t := time.Now()
		u := fn()
		elapsed += time.Since(t)
		runtime.ReadMemStats(&after)
		units += u
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	if units == 0 {
		units = 1
	}
	return stageCost{
		ns:     float64(elapsed.Nanoseconds()) / float64(units),
		allocs: float64(allocs) / float64(units),
		bytes:  float64(bytes) / float64(units),
	}
}

// stageData is the input every isolated stage shares: the workload's own
// union base and a two-pattern chain query over it.
type stageData struct {
	union  *rdf.Base
	bases  map[pattern.PeerID]*rdf.Base
	schema *rdf.Schema
	p1, p2 pattern.PathPattern
	vars   []string // the query's projection
}

// stageNames lists the isolated stages in measuring order; the
// transports are costed per payload byte, the rest per row.
var stageNames = []string{
	"rdf.scan", "rql.rebase", "rql.encode", "rql.decode", "channel.envelope",
	"network.inproc_call", "network.tcp_call", "rql.join", "rql.union", "rql.collect",
}

func perByte(stage string) bool {
	return stage == "network.inproc_call" || stage == "network.tcp_call"
}

// runStages measures every stage on d.
func runStages(d stageData, minTime time.Duration) (map[string]stageCost, error) {
	out := map[string]stageCost{}
	scan := func(store *rql.TermStore, b *rdf.Base, pp pattern.PathPattern) *rql.Batch {
		return rql.EvalPathPatternBatchInto(store, b, d.schema, pp)
	}
	out["rdf.scan"] = measureStage(minTime, nil, func() int {
		return scan(rql.NewTermStore(), d.union, d.p1).Len()
	})

	// The wire frames a provider would ship for the first pattern.
	full := scan(nil, d.union, d.p1)
	if full.Len() == 0 {
		return nil, fmt.Errorf("stages: pattern %s matches nothing", d.p1.ID)
	}
	var frames [][]byte
	sl := rql.NewSlicer(full)
	for start := 0; start < full.Len(); start += frameRows {
		frames = append(frames, rql.EncodeBatch(sl.Slice(start, min(start+frameRows, full.Len()))))
	}
	rows := full.Len()
	payload := 0
	for _, f := range frames {
		payload += len(f)
	}

	out["rql.encode"] = measureStage(minTime, nil, func() int {
		sl := rql.NewSlicer(full)
		for start := 0; start < full.Len(); start += frameRows {
			buf := rql.AppendBatch(rql.GetWireBuf(), sl.Slice(start, min(start+frameRows, full.Len())))
			rql.PutWireBuf(buf)
		}
		return rows
	})
	var decodeErr error
	out["rql.decode"] = measureStage(minTime, nil, func() int {
		for _, f := range frames {
			if _, err := rql.DecodeBatch(f); err != nil {
				decodeErr = err
			}
		}
		return rows
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("stages: decode: %w", decodeErr)
	}
	var decoded []*rql.Batch
	out["rql.rebase"] = measureStage(minTime, func() {
		decoded = decoded[:0]
		for _, f := range frames {
			b, _ := rql.DecodeBatch(f)
			decoded = append(decoded, b)
		}
	}, func() int {
		store := rql.NewTermStore()
		for _, b := range decoded {
			b.Rebase(store)
		}
		return rows
	})
	var envErr error
	out["channel.envelope"] = measureStage(minTime, nil, func() int {
		for i, f := range frames {
			body, err := json.Marshal(channel.Packet{ChannelID: "C#1", Type: channel.Results, Seq: i + 1,
				Rows: frameRows, Payload: f, Enc: channel.EncBatch})
			if err != nil {
				envErr = err
				continue
			}
			var pkt channel.Packet
			if err := json.Unmarshal(body, &pkt); err != nil {
				envErr = err
			}
		}
		return rows
	})
	if envErr != nil {
		return nil, fmt.Errorf("stages: envelope: %w", envErr)
	}

	var err error
	if out["network.inproc_call"], err = measureTransport(minTime, frames, payload, false); err != nil {
		return nil, err
	}
	if out["network.tcp_call"], err = measureTransport(minTime, frames, payload, true); err != nil {
		return nil, err
	}

	store := rql.NewTermStore()
	left, right := scan(store, d.union, d.p1), scan(store, d.union, d.p2)
	var joined *rql.Batch
	out["rql.join"] = measureStage(minTime, nil, func() int {
		joined = left.Join(right)
		return joined.Len()
	})
	if joined.Len() == 0 {
		return nil, fmt.Errorf("stages: join of %s and %s is empty", d.p1.ID, d.p2.ID)
	}
	var parts []*rql.Batch
	for _, b := range d.bases {
		parts = append(parts, scan(store, b, d.p1))
	}
	out["rql.union"] = measureStage(minTime, nil, func() int {
		return rql.UnionAll(parts...).Len()
	})
	out["rql.collect"] = measureStage(minTime, nil, func() int {
		return joined.ResultSet().Project(d.vars).Len()
	})
	return out, nil
}

// measureTransport costs one call per frame through a network, in
// process or over a loopback gateway, against a handler that does
// nothing; units are payload bytes.
func measureTransport(minTime time.Duration, frames [][]byte, payload int, overTCP bool) (stageCost, error) {
	const src, dst = pattern.PeerID("stage-src"), pattern.PeerID("stage-dst")
	net := network.New()
	net.Handle(dst, "stage.echo", func(network.Message) ([]byte, error) { return nil, nil })
	call := func(f []byte) error {
		_, err := net.Call(src, dst, "stage.echo", f)
		return err
	}
	if overTCP {
		gw, err := network.ServeTCP(net, dst, "127.0.0.1:0")
		if err != nil {
			return stageCost{}, err
		}
		defer gw.Close()
		c, err := network.DialTCP(gw.Addr())
		if err != nil {
			return stageCost{}, err
		}
		defer c.Close()
		call = func(f []byte) error {
			_, err := c.Call(src, "stage.echo", f)
			return err
		}
	}
	var callErr error
	cost := measureStage(minTime, nil, func() int {
		for _, f := range frames {
			if err := call(f); err != nil {
				callErr = err
			}
		}
		return payload
	})
	if callErr != nil {
		return stageCost{}, fmt.Errorf("stages: transport: %w", callErr)
	}
	return cost, nil
}
