// Command fleetbench is the repository's end-to-end benchmark: it starts an
// in-process fleet of two cdcs-serve replicas on loopback and drives one
// named workload through cdcs.SweepDistributed, then prints every metric by
// name and unit and checks the outputs. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and metrics.
//
//	fleetbench --workload cold-grid --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run measures an untraced window, a traced one (spans at
// the benchmark's own call sites) and a second untraced one, then replays
// the traced cells layer by layer, and reports per-layer metrics. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cdcs"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	tiny     bool // smoke-test sizes, for the harness's own tests
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: cold-grid, kilotile or warm-replay")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "fleetbench"), "directory for replica caches and trace output")
	flag.Parse()
	o.trace = trace == 1
	if o.workload == "" || o.seconds <= 0 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	if err := rep.writeJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	name  string
	value float64
	unit  string
}

// report is a run's outcome: the metrics it publishes plus its correctness
// accounting.
type report struct {
	attempted int
	failed    int
	metrics   []metric
	digest    string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) writeJSON(w io.Writer) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]val{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// run executes one benchmark invocation, printing human-readable results
// to out, and returns the report.
func run(o options, out io.Writer) (*report, error) {
	wl, err := newWorkload(o.workload, o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	f, setups, err := setup(wl, filepath.Join(work, "untraced"), nil, wl.setupRepeats)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	w, err := measure(f, wl, o.seconds, nil)
	if err != nil {
		f.close()
		return nil, err
	}
	rep := &report{attempted: w.attempted, failed: w.failed, digest: digest(w.sweeps, wl.digestSweeps)}
	var checked int
	var bad []string
	if w.sweeps[0] != nil {
		checked, bad, err = verifySample(f, w.sweeps[0])
	}
	f.close()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	rep.failed += len(bad)
	fmt.Fprintf(out, "workload %s seed %d: %d sweeps, %d/%d cells in %.3fs; sample %d cells checked, %d mismatches; digest %s\n",
		wl.name, o.seed, w.runs, w.done, w.attempted, w.elapsed.Seconds(), checked, len(bad), rep.digest)
	for _, n := range append(w.notes, bad...) {
		fmt.Fprintln(out, "  error:", n)
	}
	if !o.trace {
		endToEnd(rep, w, wl, setups, out)
		return rep, nil
	}
	return rep, traced(o, wl, work, w, rep, out)
}

// setup starts the workload's fleet repeats times on fresh directories
// under root and returns the last fleet with every set-up's duration. Each
// set-up starts the fleet, waits for it to answer and warms it up; a
// workload with a corpus also writes the corpus and restarts the fleet on
// the same directories with its bounded memory tier. Only the final fleet
// is traced.
func setup(wl *workload, root string, tr *tracer, repeats int) (*fleet, []time.Duration, error) {
	var times []time.Duration
	for k := 0; k < repeats; k++ {
		dirs, err := replicaDirs(root)
		if err != nil {
			return nil, nil, err
		}
		last := k == repeats-1
		var t *tracer
		if last {
			t = tr
		}
		start := time.Now()
		f, err := setupOnce(wl, dirs, t)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start))
		if last {
			return f, times, nil
		}
		f.close()
	}
	return nil, nil, fmt.Errorf("setup needs at least one repeat")
}

// setupOnce starts, readies and warms the fleet; see setup.
func setupOnce(wl *workload, dirs []string, tr *tracer) (*fleet, error) {
	client := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Minute}
	defer client.CloseIdleConnections()
	first, entries := tr, wl.cacheEntries
	if wl.corpus != nil {
		first, entries = nil, 0 // the corpus-writing fleet is not the measured one
	}
	f, err := startFleet(dirs, entries, first)
	if err != nil {
		return nil, err
	}
	if err := f.ready(client); err != nil {
		f.close()
		return nil, err
	}
	if err := f.warmUp(client); err != nil {
		f.close()
		return nil, err
	}
	if wl.corpus == nil {
		return f, nil
	}
	_, _, err = cdcs.SweepDistributed(*wl.corpus, f.urls(), cdcs.DistributedSweepOptions{Client: client, Parallelism: inFlight})
	f.close()
	if err != nil {
		return nil, fmt.Errorf("write corpus: %w", err)
	}
	if f, err = startFleet(dirs, wl.cacheEntries, tr); err != nil {
		return nil, err
	}
	if err := f.ready(client); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// endToEnd adds the end-to-end metrics of an untraced window.
func endToEnd(rep *report, w *window, wl *workload, setups []time.Duration, out io.Writer) {
	q := summarize(w.rounds, wl.quietShare)
	pct, tailV, ok := tail(q.cellLat, wl.tailPct)
	rep.add("setup_s", median(setups).Seconds(), "s")
	rep.add("cells_per_s", q.rate, "1/s")
	rep.add("cpu_ms_per_cell", ms(q.cpuPerCell), "ms")
	rep.add("cell_p50_ms", ms(median(q.cellLat)), "ms")
	rep.add("cell_tail_ms", ms(tailV), "ms")
	rep.add("sweep_p50_s", median(q.sweepLat).Seconds(), "s")
	rep.add("peak_rss_mb", w.peakRSSMB, "MB")
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "  %-16s %14.6f %s\n", m.name, m.value, m.unit)
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(out, "  %-16s %14.6f ratio (%d of %d cells failed or wrong)\n", "error_rate", errRate, rep.failed, rep.attempted)
	note := ""
	switch {
	case !ok:
		note = fmt.Sprintf(", fewer than %d beyond any rung: median reported", tailMinBeyond)
	case pct != wl.tailPct:
		note = fmt.Sprintf(", below the workload's p%g: too few cells", wl.tailPct)
	}
	fmt.Fprintf(out, "  time metrics are over the fastest %d of %d rounds (%d of %d cells); cell_tail_ms is p%g%s; setup_s is the median of %d set-ups\n",
		q.rounds, len(w.rounds), q.cells, w.done, pct, note, len(setups))
	all := summarize(w.rounds, 1)
	fmt.Fprintf(out, "  all rounds: %.3f cells/s, %.3f CPU-ms/cell, cell p50 %.3f ms, sweep p50 %.4f s\n",
		all.rate, ms(all.cpuPerCell), ms(median(all.cellLat)), median(all.sweepLat).Seconds())
	sizes := make([]string, 0, len(w.byMesh))
	for size := range w.byMesh {
		sizes = append(sizes, size)
	}
	sort.Strings(sizes)
	for _, size := range sizes {
		fmt.Fprintf(out, "  cell latency on %s: median %.3f ms over %d cells\n", size, ms(median(w.byMesh[size])), len(w.byMesh[size]))
	}
}

// traced measures a traced window and a second untraced one, each on a
// fresh fleet, replays the traced window's digest sweeps layer by layer and
// adds the per-layer metrics. Untraced windows on both sides of the traced
// one cancel the drift and warm-up a single before/after pair would fold
// into trace.overhead_pct.
func traced(o options, wl *workload, work string, plain *window, rep *report, out io.Writer) error {
	tr := newTracer()
	w, err := rerun(o, wl, filepath.Join(work, "traced"), tr, rep, out)
	if err != nil {
		return fmt.Errorf("traced window: %w", err)
	}
	again, err := rerun(o, wl, filepath.Join(work, "untraced-2"), nil, rep, out)
	if err != nil {
		return fmt.Errorf("second untraced window: %w", err)
	}
	tracedDigest := digest(w.sweeps, wl.digestSweeps)
	if tracedDigest == "incomplete" {
		return fmt.Errorf("traced window lost a digest sweep; nothing to replay")
	}
	fleetSpans := tr.snapshot()
	rs, err := replay(tr, w.sweeps[:wl.digestSweeps])
	if err != nil {
		return err
	}
	replaySpans := tr.snapshot()[len(fleetSpans):]
	rep.failed += len(rs.mismatches)
	for _, m := range rs.mismatches {
		fmt.Fprintln(out, "  error: replay differs from fleet:", m)
	}
	fmt.Fprintf(out, "traced: %d/%d cells in %.3fs, digest %s; replayed %d cells, %d mismatches\n",
		w.done, w.attempted, w.elapsed.Seconds(), tracedDigest, rs.cells, len(rs.mismatches))

	rate := func(w *window) float64 { return summarize(w.rounds, wl.quietShare).rate }
	base := (rate(plain) + rate(again)) / 2
	fmt.Fprintf(out, "cells_per_s: untraced %.3f, traced %.3f, untraced again %.3f\n",
		rate(plain), rate(w), rate(again))
	perLayer(rep, plain, w, base, rate(w), fleetSpans, rs)
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "  %-34s %14.6f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(out, "  mesh.New median by size: %s\n", rs.meshSizes())

	tf := traceFile{
		Workload: wl.name, Seed: o.seed,
		FleetCells: w.done, FleetTable: timeTable(selfTimes(fleetSpans), w.done),
		ReplayCells: rs.cells, ReplayTable: timeTable(selfTimes(replaySpans), rs.cells),
		Spans: append(fleetSpans, replaySpans...),
	}
	printTable(out, "fleet window (traced)", tf.FleetTable)
	printTable(out, "layer replay", tf.ReplayTable)
	path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.json", wl.name, o.seed))
	if err := writeTrace(path, tf); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return nil
}

// rerun measures one more window on a fresh fleet (traced when tr is
// non-nil), adds its cells to the report and checks its digest against the
// first window's.
func rerun(o options, wl *workload, root string, tr *tracer, rep *report, out io.Writer) (*window, error) {
	f, _, err := setup(wl, root, tr, 1)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	w, err := measure(f, wl, o.seconds, tr)
	f.close()
	if err != nil {
		return nil, err
	}
	rep.attempted += w.attempted
	rep.failed += w.failed
	if d := digest(w.sweeps, wl.digestSweeps); d != rep.digest {
		rep.failed++
		fmt.Fprintf(out, "  error: digest %s differs from the first window's %s\n", d, rep.digest)
	}
	return w, nil
}

// perLayer adds the per-layer metrics: process counters from the first
// untraced window, span and store figures from the traced window w, the
// tracing overhead of tracedRate against baseRate (untraced cells_per_s),
// and simulator layer timings from the replay.
func perLayer(rep *report, plain, w *window, baseRate, tracedRate float64, spans []span, rs *replayStats) {
	cells := max(1, plain.done)
	rep.add("runtime.alloc_mb_per_cell", plain.allocBytes/(1<<20)/float64(cells), "MB")
	rep.add("runtime.gc_cpu_fraction", plain.gcCPU, "ratio")
	overhead := 0.0
	if baseRate > 0 {
		overhead = 100 * (baseRate - tracedRate) / baseRate
	}
	rep.add("trace.overhead_pct", overhead, "%")

	rep.add("mesh.new_ms", rs.meshNewMs(), "ms")
	rep.add("workload.mix_build_ms", ms(median(rs.mixBuild)), "ms")
	for _, name := range cdcs.SchemeNames() {
		rep.add("policy.build_ms."+schemeKeys[name], ms(median(rs.build[name])), "ms")
	}
	for _, ph := range []string{"alloc", "vc_place", "thread_place", "data_place"} {
		rep.add("core."+ph+"_ms", ms(median(rs.phases[ph])), "ms")
	}
	trades := 0.0
	for _, t := range rs.trades {
		trades += float64(t)
	}
	if len(rs.trades) > 0 {
		trades /= float64(len(rs.trades))
	}
	rep.add("core.trades", trades, "count")
	rep.add("perfmodel.evaluate_ms", ms(median(rs.evaluate)), "ms")
	rep.add("cdcs.hash_us", float64(median(rs.hash))/float64(time.Microsecond), "us")
	rep.add("cdcs.cells_ms", ms(median(rs.cellsCall)), "ms")

	rep.add("server.hit_ms", ms(median(durations(spans, "server.compare.hit"))), "ms")
	rep.add("server.miss_ms", ms(median(durations(spans, "server.compare.miss"))), "ms")
	rep.add("server.simulations", float64(simulations(w.after)-simulations(w.before)), "count")

	st := diffStores(w.before, w.after)
	for _, tier := range []string{"memory", "disk", "peer"} {
		rep.add("resultstore."+tier+".hit_ratio", st.hitRatio(tier), "ratio")
	}
	rep.add("resultstore.peer.hits", float64(st.tiers["peer"].Hits), "count")
	rep.add("resultstore.coalesced", float64(st.coalesced), "count")
	rep.add("resultstore.disk.bytes_per_entry", st.bytesPerEntry("disk"), "B")

	rep.add("fanout.cell_rtt_ms", ms(median(durations(spans, "fanout.attempt"))), "ms")
	rep.add("fanout.overhead_ms", ms(median(overheads(spans))), "ms")
	rep.add("fanout.retried", float64(w.retried), "count")
	rep.add("fanout.replicated", float64(w.replicated), "count")
	rep.add("fleet.breaker_trips", float64(w.breakerTrips), "count")
}

// overheads pairs each transport attempt with the replica handler span it
// caused and returns round trip minus handler time.
func overheads(spans []span) []time.Duration {
	handler := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 && (s.Name == "server.compare.hit" || s.Name == "server.compare.miss") {
			handler[s.Parent] = s.dur()
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && s.Name == "fanout.attempt" {
			out = append(out, s.dur()-h)
		}
	}
	return out
}

func printTable(out io.Writer, title string, rows []timeRow) {
	fmt.Fprintf(out, "where a cell's time goes — %s (self time):\n", title)
	for _, r := range rows {
		fmt.Fprintf(out, "  %-26s %10.3f ms/cell %6.1f%%\n", r.Layer, r.MsPerCell, 100*r.Share)
	}
}
