package main

// The measured window: sweeps run back to back through
// cdcs.SweepDistributed (a closed loop, one sweep at a time, 2 cells in
// flight) until the time is up, the digest sweeps are done and the last
// round is complete.

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cdcs"
	"cdcs/internal/server"
)

// inFlight is how many cells the coordinator keeps in flight.
const inFlight = 2

type window struct {
	sweeps    []*cdcs.SweepResult // the digest sweeps, in order; nil where one failed
	runs      int                 // sweeps run
	attempted int
	done      int
	failed    int
	notes     []string

	elapsed time.Duration
	rounds  []round
	cur     round                      // the round in progress
	byMesh  map[string][]time.Duration // cell latencies by mesh size

	retried, replicated int
	breakerTrips        int64

	allocBytes float64
	gcCPU      float64
	peakRSSMB  float64

	before, after []server.Stats
}

// round is what one round of sweeps completed and how long it took.
type round struct {
	cells     int
	wall, cpu time.Duration
	cellLat   []time.Duration
	sweepLat  []time.Duration
}

func (w *window) fail(n int, format string, args ...any) {
	w.failed += n
	if len(w.notes) < 10 {
		w.notes = append(w.notes, fmt.Sprintf(format, args...))
	}
}

// measure runs one window against the fleet. A non-nil tracer records a
// span per sweep and per cell attempt.
func measure(f *fleet, wl *workload, seconds float64, tr *tracer) (*window, error) {
	ct := newCellTransport(tr)
	defer ct.closeIdle()
	client := &http.Client{Transport: ct, Timeout: 5 * time.Minute}
	opts := cdcs.DistributedSweepOptions{Client: client, Parallelism: inFlight}

	w := &window{before: f.stats(), byMesh: map[string][]time.Duration{}}
	// Start from the live heap and reset the peak-RSS mark (Linux), so
	// peak_rss_mb covers the window, not set-up's leftovers.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: else the lifetime peak
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var roundStart time.Time
	var roundCPU0 time.Duration
	for i := 0; i < wl.minSweeps || i%wl.period != 0 || time.Now().Before(deadline); i++ {
		if i%wl.period == 0 {
			w.cur, roundStart, roundCPU0 = round{}, time.Now(), cpuTime()
		}
		req := wl.sweep(i)
		canon, err := req.Canonical()
		if err != nil {
			return nil, fmt.Errorf("sweep %d: %w", i, err)
		}
		n := canon.NumCells()
		var sid int64
		if tr != nil {
			sid = tr.newID()
		}
		ct.beginSweep(int64(i), sid)
		s0 := time.Now()
		res, stats, err := cdcs.SweepDistributed(req, f.urls(), opts)
		d := time.Since(s0)
		if tr != nil {
			tr.record(sid, 0, int64(i), "sweep", s0)
		}
		recs := ct.endSweep()
		w.runs++
		w.attempted += n
		if stats != nil {
			w.retried += stats.Retried
			w.replicated += stats.Replicated
			for _, h := range stats.Fleet {
				w.breakerTrips += h.BreakerTrips
			}
		}
		if i < wl.digestSweeps {
			w.sweeps = append(w.sweeps, res)
		}
		if err != nil {
			w.fail(n, "sweep %d: %v", i, err)
		} else {
			w.cur.sweepLat = append(w.cur.sweepLat, d)
			w.cur.cells += len(res.Cells)
			w.done += len(res.Cells)
			if err := w.account(i, res, recs); err != nil {
				return nil, err
			}
		}
		if i%wl.period == wl.period-1 && w.cur.cells > 0 {
			w.cur.wall, w.cur.cpu = time.Since(roundStart), cpuTime()-roundCPU0
			w.rounds = append(w.rounds, w.cur)
		}
	}
	w.elapsed = time.Since(start)
	rt1 := readRuntime()
	w.allocBytes = rt1.allocBytes - rt0.allocBytes
	if dt := rt1.cpuTotal - rt0.cpuTotal; dt > 0 {
		w.gcCPU = (rt1.cpuGC - rt0.cpuGC) / dt
	}
	w.peakRSSMB = peakRSSMB()
	w.after = f.stats()
	return w, nil
}

// account matches each cell of a finished sweep to the transport's record
// of it by request body, checks the content address the replica echoed,
// and takes the cell's latency. It runs between sweeps, so only the digest
// sweeps' results outlive their sweep and the harness's own memory stays
// out of peak_rss_mb.
func (w *window) account(sweep int, res *cdcs.SweepResult, recs map[string]*cellRec) error {
	for _, cell := range res.Cells {
		body, err := json.Marshal(cell.Request)
		if err != nil {
			return err
		}
		rec := recs[string(body)]
		switch {
		case rec == nil || rec.end.IsZero():
			w.fail(1, "sweep %d cell %d: no accepted response seen", sweep, cell.Index)
		case rec.echo != cell.Hash:
			w.fail(1, "sweep %d cell %d: echoed hash %.12s, want %.12s", sweep, cell.Index, rec.echo, cell.Hash)
		default:
			d := rec.end.Sub(rec.first)
			w.cur.cellLat = append(w.cur.cellLat, d)
			size := fmt.Sprintf("%dx%d", cell.Request.Config.MeshWidth, cell.Request.Config.MeshHeight)
			w.byMesh[size] = append(w.byMesh[size], d)
		}
	}
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSample struct {
	allocBytes, cpuGC, cpuTotal float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0].Value), cpuGC: val(s[1].Value), cpuTotal: val(s[2].Value)}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for none.
func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailLadder is the percentiles the tail is chosen from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailMinBeyond is how many samples must lie beyond the reported tail.
const tailMinBeyond = 10

// tail returns the highest ladder percentile, at most maxPct, with at
// least tailMinBeyond samples beyond it (nearest rank), and its value.
// With too few samples for any rung it falls back to the median and
// reports ok = false.
func tail(ds []time.Duration, maxPct float64) (pct float64, v time.Duration, ok bool) {
	n := len(ds)
	if n == 0 {
		return 50, 0, false
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	for _, p := range tailLadder {
		if p > maxPct {
			continue
		}
		rank := nearestRank(p, n)
		if n-rank >= tailMinBeyond {
			return p, s[rank-1], true
		}
	}
	return 50, s[nearestRank(50, n)-1], false
}

// nearestRank is the 1-based rank of percentile p among n sorted samples.
func nearestRank(p float64, n int) int {
	r := int(p * float64(n) / 100)
	if float64(r)*100 < p*float64(n) {
		r++
	}
	return max(1, min(n, r))
}

// summary is the time metrics' raw material, pooled over chosen rounds.
type summary struct {
	rounds     int
	cells      int
	rate       float64       // cells per wall second
	cpuPerCell time.Duration // process CPU per cell
	cellLat    []time.Duration
	sweepLat   []time.Duration
}

// summarize pools the fastest share of rounds (by wall time per cell, at
// least one round). Every round of a workload has the same shape, so on a
// shared host what sets the slow rounds apart is mostly CPU and disk time
// taken by other tenants in bursts shorter than a window; a change to the
// program moves every round, the fast ones included.
func summarize(rs []round, share float64) summary {
	sorted := slices.Clone(rs)
	perCell := func(r round) float64 { return r.wall.Seconds() / float64(r.cells) }
	slices.SortStableFunc(sorted, func(a, b round) int { return cmp.Compare(perCell(a), perCell(b)) })
	k := max(1, int(math.Round(share*float64(len(sorted)))))
	var s summary
	var wall, cpu time.Duration
	for _, r := range sorted[:min(k, len(sorted))] {
		s.rounds++
		s.cells += r.cells
		wall += r.wall
		cpu += r.cpu
		s.cellLat = append(s.cellLat, r.cellLat...)
		s.sweepLat = append(s.sweepLat, r.sweepLat...)
	}
	if s.cells > 0 {
		s.rate = float64(s.cells) / wall.Seconds()
		s.cpuPerCell = cpu / time.Duration(s.cells)
	}
	return s
}
