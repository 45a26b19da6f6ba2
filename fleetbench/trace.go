package main

// Spans recorded at the benchmark's own call sites: around each sweep, each
// cell's transport round trip, each replica handler call and, in the layer
// replay, each call into a simulator layer. Spans stay in memory and are
// written out once the run ends.

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Headers carrying trace context from the coordinator's transport to the
// replica handler wrapper. The server ignores headers it does not know.
const (
	spanHeader  = "X-Bench-Span"
	sweepHeader = "X-Bench-Sweep"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 for a root
	Sweep  int64  `json:"sweep"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// ns converts a wall time to the tracer's clock.
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span that ran from start until now.
func (t *tracer) record(id, parent, sweep int64, name string, start time.Time) {
	t.add(span{ID: id, Parent: parent, Sweep: sweep, Name: name, Start: t.ns(start), End: t.ns(time.Now())})
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// handler wraps a replica's API handler: every request except health probes
// becomes a span named after what it did, with the coordinator's transport
// span (when the request carries one) as its parent.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		sweep, _ := strconv.ParseInt(r.Header.Get(sweepHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		name := "server.other"
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/compare":
			// The handler sets X-Cache on the shared header map before
			// writing, so it is readable once ServeHTTP returns.
			name = "server.compare." + w.Header().Get("X-Cache")
		case strings.HasPrefix(r.URL.Path, "/v1/blob/"):
			name = "server.blob"
		}
		t.record(t.newID(), parent, sweep, name, start)
	})
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return time.Duration(total)
}

// durations lists the durations of the spans with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// timeRow is one line of a "where a cell's time goes" table.
type timeRow struct {
	Layer     string  `json:"layer"`
	SelfMs    float64 `json:"self_ms"`
	MsPerCell float64 `json:"ms_per_cell"`
	Share     float64 `json:"share"`
}

// timeTable turns self times into rows sorted by cost, per cell.
func timeTable(self map[string]time.Duration, cells int) []timeRow {
	var total time.Duration
	for _, d := range self {
		total += d
	}
	rows := make([]timeRow, 0, len(self))
	for name, d := range self {
		r := timeRow{Layer: name, SelfMs: ms(d)}
		if cells > 0 {
			r.MsPerCell = ms(d) / float64(cells)
		}
		if total > 0 {
			r.Share = float64(d) / float64(total)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows
}

// traceFile is what a traced run writes out.
type traceFile struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	FleetCells  int       `json:"fleet_cells"`
	FleetTable  []timeRow `json:"fleet_table"`
	ReplayCells int       `json:"replay_cells"`
	ReplayTable []timeRow `json:"replay_table"`
	Spans       []span    `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
