package exec

import (
	"testing"

	"sqpeer/internal/channel"
	"sqpeer/internal/obs"
	"sqpeer/internal/optimizer"
	"sqpeer/internal/rdf"
	"sqpeer/internal/rql"
)

// TestUndecodableResultsFrameIsNotCounted feeds the collector a Results
// packet it cannot decode — a truncated batch frame, and a frame in the
// retired JSON row encoding — and checks that the dispatch fails as a bad
// packet without the frame's rows reaching the retry checkpoint, the
// shipped-rows/bytes counters, the throughput monitor or the batch-size
// histogram.
func TestUndecodableResultsFrameIsNotCounted(t *testing.T) {
	rs := rql.NewResultSet("X")
	rs.Add(rql.Row{"X": rdf.NewIRI("http://example.org/a")})
	rs.Add(rql.Row{"X": rdf.NewIRI("http://example.org/b")})
	b := rql.BatchOf(rs)
	frame := rql.EncodeBatch(b)
	for _, tc := range []struct {
		name string
		pkt  channel.Packet
	}{
		{"truncated batch frame", channel.Packet{Enc: channel.EncBatch, Payload: frame[:len(frame)-3]}},
		{"json row frame", channel.Packet{Enc: channel.EncJSON,
			Payload: []byte(`{"vars":["X"],"rows":[{"X":"http://example.org/a"},{"X":"http://example.org/b"}]}`)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tm := optimizer.NewThroughputMonitor(1)
			tm.Track("P2")
			e := &Engine{Self: "P1", Obs: reg, Throughput: tm}
			ex := newExecution(e)
			res := &remoteResult{site: "P2"}
			ex.inbox["ch"] = res
			pkt := tc.pkt
			pkt.ChannelID, pkt.Type, pkt.Rows = "ch", channel.Results, b.Len()
			ex.onPacket(pkt)

			if res.err == nil {
				t.Error("undecodable frame must fail the dispatch")
			}
			if res.rowCount != 0 || len(res.batches) != 0 {
				t.Errorf("checkpoint counted %d rows over %d frames", res.rowCount, len(res.batches))
			}
			if m := e.Metrics(); m.RowsShipped != 0 || m.BytesShipped != 0 {
				t.Errorf("shipped counters moved: %d rows, %d bytes", m.RowsShipped, m.BytesShipped)
			}
			// Nothing observed: the tracked peer stays silent and trips the
			// one-row floor at the next tick.
			if flagged := tm.Tick(); len(flagged) != 1 || flagged[0] != "P2" {
				t.Errorf("throughput monitor observed the frame's rows (flagged %v)", flagged)
			}
			if n, _, _, _ := reg.Histogram("exec_batch_rows", obs.L("peer", "P1")).Summary(); n != 0 {
				t.Errorf("exec_batch_rows observed %d frames", n)
			}
		})
	}
}
