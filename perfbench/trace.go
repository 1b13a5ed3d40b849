package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Op     int    `json:"op"`     // operation (query or write) id
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory for the traced pass and writes them out
// when the run ends. It is safe for concurrent use: the bridge records
// forwards from the network's goroutines.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	now := r.since(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := r.since(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return r.spans[id].dur()
}

// add records an already-finished span.
func (r *recorder) add(name string, parent, op int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name,
		Start: r.since(start), End: r.since(end)})
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to the
// parent's; children may overlap (concurrent forwards).
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64 = 0, -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
