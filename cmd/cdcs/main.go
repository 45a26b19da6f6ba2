// Command cdcs regenerates the paper's tables and figures from the command
// line, and runs config-grid sweeps over the machine model:
//
//	cdcs -list                 # list experiment ids
//	cdcs -exp fig11            # run one experiment at paper scale (50 mixes)
//	cdcs -exp fig11 -quick     # scaled-down smoke run
//	cdcs -all -quick           # run everything, with a progress line
//	cdcs -all -quick -j 8      # bound the worker pool to 8 jobs
//	cdcs -sweep grid.json      # evaluate a config grid (see SweepRequest)
//	cdcs -sweep - -sweep-json  # grid from stdin, full results as JSON
//
//	cdcs -sweep grid.json -replicas http://a:8080,http://b:8080
//	                           # shard cells across cdcs-serve replicas
//	cdcs -sweep grid.json -replicas ... -fleet-probe-interval 500ms \
//	     -fleet-breaker-threshold 5 -hot-cell-latency 2s
//	                           # tune the fleet view: probe period, breaker
//	                           # sensitivity, hot-cell replication threshold
//	cdcs -sweep-diff a.json b.json
//	                           # align two saved SweepResults by cell hash
//	cdcs -drain http://a:8080  # gracefully drain a replica: it finishes
//	                           # in-flight work, leaves the fleet, and this
//	                           # command waits until it reports drained
//
// A sweep file is a cdcs.SweepRequest: axes over the machine config (mesh
// sizes up to 32x32, bank KB, latencies, channels) crossed with a list of
// mixes, e.g.
//
//	{"mesh": [{"width": 8, "height": 8}, {"width": 16, "height": 16}],
//	 "hop_latency": [2, 4],
//	 "mixes": [{"kind": "random", "seed": 1, "n": 16}],
//	 "schemes": ["S-NUCA", "CDCS"], "seed": 1}
//
// With -replicas, each cell is routed to the replica its content address
// rendezvous-hashes to, steered among the top rendezvous holders by a live
// fleet view (health probes, per-replica circuit breakers, load-aware
// ordering — a slow or dead replica sheds its cells to survivors without
// operator action) and the merged result is byte-identical to a local run —
// the replicas' result caches, persistent with -cache-dir, absorb repeated
// and overlapping sweeps. -sweep-diff reads two -sweep-json files, aligns
// cells by content hash and reports per-cell and aggregate weighted-speedup
// deltas plus cells present in only one file.
//
// Simulation jobs fan out over a worker pool (-j, default all cores);
// results are bit-identical for any worker count. Ctrl-C cancels the run.
//
// Exit status: 0 on success, 1 on any failure (unknown experiment, canceled
// run, bad sweep file, unreachable replicas, output write error), 2 on
// usage errors.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"time"

	"cdcs"
	"cdcs/internal/exp"
	"cdcs/internal/fleet"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id        = flag.String("exp", "", "experiment id to run (see -list)")
		all       = flag.Bool("all", false, "run every experiment (alphabetical id order, as in -list)")
		list      = flag.Bool("list", false, "list experiment ids (alphabetical)")
		quick     = flag.Bool("quick", false, "reduced mix counts for fast runs")
		mixes     = flag.Int("mixes", 0, "override the number of mixes per point")
		seed      = flag.Int64("seed", 1, "base random seed")
		jobs      = flag.Int("j", runtime.GOMAXPROCS(0), "max parallel simulation jobs (results are identical for any value)")
		sweep     = flag.String("sweep", "", "run a config-grid sweep from a JSON file (a cdcs.SweepRequest; \"-\" reads stdin)")
		sweepJSON = flag.Bool("sweep-json", false, "with -sweep or -sweep-diff, emit the full result as JSON instead of a table")
		replicas  = flag.String("replicas", "", "with -sweep, comma-separated cdcs-serve base URLs to shard cells across")
		sweepDiff = flag.Bool("sweep-diff", false, "diff two saved SweepResult files (two positional args), aligned by cell content hash")
		drain     = flag.String("drain", "", "gracefully drain a cdcs-serve replica at this base URL: it finishes in-flight work, leaves the fleet, then this command returns")
		drainWait = flag.Duration("drain-timeout", 2*time.Minute, "with -drain, how long to wait for the replica to report drained")

		probeInterval    = flag.Duration("fleet-probe-interval", 0, "with -replicas, health-probe period over the replicas (0 = default 2s, negative disables probing)")
		breakerThreshold = flag.Int("fleet-breaker-threshold", 0, "with -replicas, consecutive failures that open a replica's circuit breaker (0 = default 3)")
		hotCellLatency   = flag.Duration("hot-cell-latency", 0, "with -replicas, replicate cells slower than this to a second holder (0 disables)")
	)
	flag.Parse()

	if *sweepDiff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "cdcs: -sweep-diff needs exactly two SweepResult files (from -sweep ... -sweep-json)")
			return 2
		}
	} else if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cdcs: unexpected arguments: %v\n", flag.Args())
		flag.PrintDefaults()
		return 2
	}
	if *all && *id != "" {
		fmt.Fprintln(os.Stderr, "cdcs: -exp and -all are mutually exclusive")
		return 2
	}
	if *sweep != "" && (*all || *id != "" || *list || *sweepDiff) {
		fmt.Fprintln(os.Stderr, "cdcs: -sweep is mutually exclusive with -exp, -all, -list and -sweep-diff")
		return 2
	}
	if *sweepDiff && (*all || *id != "" || *list) {
		fmt.Fprintln(os.Stderr, "cdcs: -sweep-diff is mutually exclusive with -exp, -all and -list")
		return 2
	}
	if *drain != "" && (*all || *id != "" || *list || *sweep != "" || *sweepDiff) {
		fmt.Fprintln(os.Stderr, "cdcs: -drain is mutually exclusive with -exp, -all, -list, -sweep and -sweep-diff")
		return 2
	}
	if *drain == "" {
		set := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "drain-timeout" {
				set = true
			}
		})
		if set {
			fmt.Fprintln(os.Stderr, "cdcs: -drain-timeout requires -drain")
			return 2
		}
	}
	if *replicas != "" && *sweep == "" {
		fmt.Fprintln(os.Stderr, "cdcs: -replicas requires -sweep")
		return 2
	}
	if *replicas == "" {
		var fleetFlags []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fleet-probe-interval", "fleet-breaker-threshold", "hot-cell-latency":
				fleetFlags = append(fleetFlags, "-"+f.Name)
			}
		})
		if len(fleetFlags) > 0 {
			verb := "requires"
			if len(fleetFlags) > 1 {
				verb = "require"
			}
			fmt.Fprintf(os.Stderr, "cdcs: %s %s -replicas\n", strings.Join(fleetFlags, ", "), verb)
			return 2
		}
	}
	if *sweep != "" || *sweepDiff {
		// The grid/result files are the single source of truth: reject
		// experiment-only flags rather than silently ignoring them.
		var conflicting []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed", "mixes", "quick":
				conflicting = append(conflicting, "-"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			fmt.Fprintf(os.Stderr, "cdcs: %s do not apply to -sweep/-sweep-diff (the files carry seed and mixes)\n",
				strings.Join(conflicting, ", "))
			return 2
		}
	}
	if *sweepJSON && *sweep == "" && !*sweepDiff {
		fmt.Fprintln(os.Stderr, "cdcs: -sweep-json requires -sweep or -sweep-diff")
		return 2
	}

	// Reports stream through one checked writer: a failed write (closed
	// pipe, full disk) must fail the run, not silently truncate output.
	out := bufio.NewWriter(os.Stdout)
	flush := func() error {
		if err := out.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "cdcs: writing output: %v\n", err)
			return err
		}
		return nil
	}

	if *list {
		for _, e := range exp.IDs() {
			fmt.Fprintln(out, e)
		}
		if flush() != nil {
			return 1
		}
		return 0
	}

	// Ctrl-C cancels in-flight simulation jobs instead of killing the
	// process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := exp.DefaultOptions()
	if *quick {
		opts = exp.QuickOptions()
	}
	if *mixes > 0 {
		opts.Mixes = *mixes
	}
	opts.Seed = *seed
	opts.Parallelism = *jobs
	opts.Context = ctx

	runOne := func(e string, progress bool) error {
		o := opts
		if progress {
			o.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%-20s %d/%d jobs", e, done, total)
			}
		}
		start := time.Now()
		rep, err := exp.Run(e, o)
		if progress {
			fmt.Fprintf(os.Stderr, "\r%-40s\r", "") // clear the progress line
		}
		if err != nil {
			return err
		}
		fmt.Fprint(out, rep.String())
		fmt.Fprintln(out)
		if err := out.Flush(); err != nil {
			return fmt.Errorf("writing output: %w", err)
		}
		if progress {
			fmt.Fprintf(os.Stderr, "%-20s done in %.1fs\n", e, time.Since(start).Seconds())
		}
		return nil
	}

	switch {
	case *drain != "":
		if err := runDrain(ctx, *drain, *drainWait); err != nil {
			fmt.Fprintf(os.Stderr, "cdcs: drain: %v\n", err)
			return 1
		}
		return 0
	case *sweepDiff:
		if err := runSweepDiff(out, flag.Arg(0), flag.Arg(1), *sweepJSON); err != nil {
			fmt.Fprintf(os.Stderr, "cdcs: sweep-diff: %v\n", err)
			return 1
		}
		if flush() != nil {
			return 1
		}
		return 0
	case *sweep != "":
		if err := runSweep(out, *sweep, *sweepJSON, *replicas, cdcs.RunOptions{
			Parallelism: *jobs,
			Context:     ctx,
			Progress: func(done, total int) {
				fmt.Fprintf(os.Stderr, "\rsweep %d/%d cells", done, total)
			},
		}, cdcs.DistributedSweepOptions{
			FleetProbeInterval:    *probeInterval,
			FleetBreakerThreshold: *breakerThreshold,
			HotCellLatency:        *hotCellLatency,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "\rcdcs: sweep: %v\n", err)
			return 1
		}
		if flush() != nil {
			return 1
		}
		return 0
	case *all:
		ids := exp.IDs()
		start := time.Now()
		for k, e := range ids {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", k+1, len(ids), e)
			if err := runOne(e, true); err != nil {
				fmt.Fprintf(os.Stderr, "cdcs: %s: %v\n", e, err)
				return 1
			}
		}
		fmt.Fprintf(os.Stderr, "all %d experiments in %.1fs (-j %d)\n",
			len(ids), time.Since(start).Seconds(), *jobs)
		return 0
	case *id != "":
		if err := runOne(*id, false); err != nil {
			fmt.Fprintf(os.Stderr, "cdcs: %v\n", err)
			return 1
		}
		return 0
	default:
		fmt.Fprintln(os.Stderr, "cdcs: use -exp <id>, -all, -list or -sweep <grid.json>")
		flag.PrintDefaults()
		return 2
	}
}

// runDrain asks the replica at base to drain (POST /v1/drain: finish
// in-flight work, refuse new work with a retryable status, leave the fleet
// once idle) and polls its /healthz until it reports status "drained" or the
// timeout expires. Draining is idempotent, so re-running the command against
// an already-draining replica just resumes the wait.
func runDrain(ctx context.Context, base string, timeout time.Duration) error {
	base = fleet.NormalizeURL(base)
	client := &http.Client{Timeout: 10 * time.Second}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/drain", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/v1/drain: %s: %s", base, resp.Status, strings.TrimSpace(string(body)))
	}
	fmt.Fprintf(os.Stderr, "drain: %s draining, waiting for in-flight work\n", base)

	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s did not report drained within %s: %w", base, timeout, ctx.Err())
		case <-ticker.C:
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		hresp, err := client.Do(hreq)
		if err != nil {
			// A replica that shut down entirely after draining counts as
			// gone; transient errors retry until the deadline.
			continue
		}
		hbody, _ := io.ReadAll(io.LimitReader(hresp.Body, 1<<20))
		hresp.Body.Close()
		var status struct {
			Status string `json:"status"`
		}
		// A draining replica answers 503; the status comes from the body
		// regardless of the code.
		if json.Unmarshal(hbody, &status) == nil && status.Status == "drained" {
			fmt.Fprintf(os.Stderr, "drain: %s drained and left the fleet\n", base)
			return nil
		}
	}
}

// readSweepRequest loads a sweep grid from a file (or stdin for "-"),
// rejecting unknown fields so a typoed axis name fails loudly instead of
// silently sweeping the default.
func readSweepRequest(path string) (cdcs.SweepRequest, error) {
	var req cdcs.SweepRequest
	var src io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return req, err
		}
		defer f.Close()
		src = f
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("%s: %w", path, err)
	}
	return req, nil
}

// runSweep evaluates the grid — locally, or sharded across -replicas — and
// writes a per-cell table (or, with jsonOut, the full SweepResult document)
// to w. Progress goes to stderr via the options' callback; the line is
// cleared before the table prints. dopts carries the fleet knobs for the
// distributed path (parallelism, context and progress come from opts).
func runSweep(w io.Writer, path string, jsonOut bool, replicas string, opts cdcs.RunOptions, dopts cdcs.DistributedSweepOptions) error {
	req, err := readSweepRequest(path)
	if err != nil {
		return err
	}
	canon, err := req.Canonical()
	if err != nil {
		return err
	}
	var res *cdcs.SweepResult
	start := time.Now()
	if replicas != "" {
		urls := fleet.Normalize(strings.Split(replicas, ","))
		fmt.Fprintf(os.Stderr, "sweep: %d cells over %d schemes across %d replicas\n",
			canon.NumCells(), len(canon.Schemes), len(urls))
		dopts.Parallelism = opts.Parallelism
		dopts.Context = opts.Context
		dopts.Progress = opts.Progress
		var stats *cdcs.SweepReplicaStats
		res, stats, err = cdcs.SweepDistributed(canon, urls, dopts)
		fmt.Fprintf(os.Stderr, "\r%-40s\r", "") // clear the progress line
		if stats != nil {
			for _, url := range slices.Sorted(maps.Keys(stats.Cells)) {
				health := ""
				if h, ok := stats.Fleet[url]; ok {
					health = fmt.Sprintf(", %s, ewma %.1fms", h.State, h.EWMALatencyMs)
					if h.BreakerTrips > 0 {
						health += fmt.Sprintf(", %d breaker trips", h.BreakerTrips)
					}
				}
				fmt.Fprintf(os.Stderr, "sweep: %-32s %d cells (%d failed requests%s)\n",
					url, stats.Cells[url], stats.Failures[url], health)
			}
			if stats.Retried > 0 {
				fmt.Fprintf(os.Stderr, "sweep: %d cells moved off their first-choice replica\n", stats.Retried)
			}
			if stats.Replicated > 0 {
				fmt.Fprintf(os.Stderr, "sweep: %d hot cells replicated to a second holder\n", stats.Replicated)
			}
		}
		if err != nil {
			return err
		}
	} else {
		fmt.Fprintf(os.Stderr, "sweep: %d cells over %d schemes (-j %d)\n",
			canon.NumCells(), len(canon.Schemes), opts.Parallelism)
		res, err = cdcs.SweepWithOptions(canon, opts)
		fmt.Fprintf(os.Stderr, "\r%-40s\r", "") // clear the progress line
		if err != nil {
			return err
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fmt.Errorf("writing output: %w", err)
		}
	} else {
		writeSweepTable(w, res)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells in %.1fs\n", len(res.Cells), time.Since(start).Seconds())
	return nil
}

// readSweepResult loads a saved SweepResult document (the -sweep-json
// output format).
func readSweepResult(path string) (*cdcs.SweepResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var res cdcs.SweepResult
	dec := json.NewDecoder(f)
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(res.Cells) == 0 {
		return nil, fmt.Errorf("%s: no cells (is this a -sweep-json file?)", path)
	}
	return &res, nil
}

// runSweepDiff aligns two saved SweepResults by cell content hash and
// writes per-cell weighted-speedup deltas, aggregates, and unmatched cells
// (or, with jsonOut, the full SweepDiffResult document) to w.
func runSweepDiff(w io.Writer, pathA, pathB string, jsonOut bool) error {
	a, err := readSweepResult(pathA)
	if err != nil {
		return err
	}
	b, err := readSweepResult(pathB)
	if err != nil {
		return err
	}
	d, err := cdcs.DiffSweeps(a, b)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			return fmt.Errorf("writing output: %w", err)
		}
		return nil
	}
	writeDiffTable(w, pathA, pathB, d)
	return nil
}

// writeDiffTable renders the diff: one row per aligned cell with each
// common scheme's WS delta (B minus A), aggregate mean and max-|delta|
// rows, and the cells present in only one file.
func writeDiffTable(w io.Writer, pathA, pathB string, d *cdcs.SweepDiffResult) {
	fmt.Fprintf(w, "sweep-diff: B (%s) minus A (%s), %d aligned cells\n", pathB, pathA, len(d.Common))
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %7s %-28s", "cell", "mesh", "mix")
	for _, s := range d.Schemes {
		fmt.Fprintf(&b, " %10s", "d"+s)
	}
	fmt.Fprintln(w, b.String())
	for _, c := range d.Common {
		cfg := c.Cell.Config
		b.Reset()
		fmt.Fprintf(&b, "%12.12s %7s %-28s",
			c.Hash, fmt.Sprintf("%dx%d", cfg.MeshWidth, cfg.MeshHeight), c.Cell.Mix.Label())
		for _, s := range d.Schemes {
			fmt.Fprintf(&b, " %+10.4f", c.WSDelta[s])
		}
		fmt.Fprintln(w, b.String())
	}
	for _, agg := range []struct {
		name string
		vals map[string]float64
	}{{"mean", d.MeanWSDelta}, {"max|d|", d.MaxAbsWSDelta}} {
		b.Reset()
		fmt.Fprintf(&b, "%12s %7s %-28s", agg.name, "", "")
		for _, s := range d.Schemes {
			fmt.Fprintf(&b, " %+10.4f", agg.vals[s])
		}
		fmt.Fprintln(w, b.String())
	}
	for _, only := range []struct {
		name  string
		cells []cdcs.SweepCell
	}{{"A", d.OnlyA}, {"B", d.OnlyB}} {
		for _, c := range only.cells {
			cfg := c.Request.Config
			fmt.Fprintf(w, "only in %s: %12.12s %dx%d %s\n",
				only.name, c.Hash, cfg.MeshWidth, cfg.MeshHeight, c.Request.Mix.Label())
		}
	}
	if d.Identical() {
		fmt.Fprintln(w, "sweep-diff: results are identical")
	}
}

// writeSweepTable renders one row per cell: the config axes, the mix, and
// each scheme's weighted speedup over the cell's baseline.
func writeSweepTable(w io.Writer, res *cdcs.SweepResult) {
	schemes := res.Request.Schemes
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %7s %7s %6s %5s %5s %3s  %-28s", "cell", "mesh", "bankKB", "bankL", "hopL", "memL", "ch", "mix")
	for _, s := range schemes {
		fmt.Fprintf(&b, " %9s", s)
	}
	fmt.Fprintln(w, b.String())
	for _, cell := range res.Cells {
		cfg := cell.Request.Config
		b.Reset()
		fmt.Fprintf(&b, "%5d %7s %7d %6g %5g %5g %3d  %-28s",
			cell.Index, fmt.Sprintf("%dx%d", cfg.MeshWidth, cfg.MeshHeight),
			cfg.BankKB, cfg.BankLatency, cfg.HopLatency, cfg.MemLatency, cfg.MemChannels,
			cell.Request.Mix.Label())
		for _, s := range schemes {
			fmt.Fprintf(&b, " %9.3f", cell.Comparison.WeightedSpeedup[s])
		}
		fmt.Fprintln(w, b.String())
	}
}
