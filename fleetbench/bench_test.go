package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"cdcs"
	"cdcs/internal/resultstore"
	"cdcs/internal/server"
)

func durs(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[n-1-i] = time.Duration(i+1) * time.Millisecond // reversed: tail must sort
	}
	return out
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		pct  float64
		want time.Duration
		ok   bool
	}{
		{10000, 99.9, 9990 * time.Millisecond, true},
		{9999, 99, 9900 * time.Millisecond, true},
		{1300, 99, 1287 * time.Millisecond, true},
		{999, 95, 950 * time.Millisecond, true},
		{200, 95, 190 * time.Millisecond, true},
		{100, 90, 90 * time.Millisecond, true},
		{40, 75, 30 * time.Millisecond, true},
		{25, 50, 13 * time.Millisecond, true},
		{20, 50, 10 * time.Millisecond, true},
		{19, 50, 10 * time.Millisecond, false},
	} {
		pct, v, ok := tail(durs(tc.n), 100)
		if pct != tc.pct || v != tc.want || ok != tc.ok {
			t.Errorf("n=%d: got p%g=%v ok=%v, want p%g=%v ok=%v", tc.n, pct, v, ok, tc.pct, tc.want, tc.ok)
		}
		if ok {
			if beyond := tc.n - nearestRank(pct, tc.n); beyond < tailMinBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, pct)
			}
		}
	}
}

func TestTailCappedAtWorkloadPercentile(t *testing.T) {
	if pct, v, ok := tail(durs(20000), 99); pct != 99 || v != 19800*time.Millisecond || !ok {
		t.Errorf("capped at p99: got p%g=%v ok=%v", pct, v, ok)
	}
	// Below the cap's sample size the rule still steps down.
	if pct, _, ok := tail(durs(500), 99); pct != 95 || !ok {
		t.Errorf("500 samples under a p99 cap: got p%g ok=%v, want p95", pct, ok)
	}
	for _, name := range workloadNames {
		wl, _ := newWorkload(name, 1, false)
		if wl.minSweeps < wl.digestSweeps {
			t.Errorf("%s: minSweeps %d below digestSweeps %d", name, wl.minSweeps, wl.digestSweeps)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median(durs(5)); got != 3*time.Millisecond {
		t.Errorf("odd median %v", got)
	}
	if got := median(durs(4)); got != 2500*time.Microsecond {
		t.Errorf("even median %v", got)
	}
}

func TestSummarizeKeepsFastestRounds(t *testing.T) {
	msec := time.Millisecond
	rounds := []round{
		{cells: 10, wall: 100 * msec, cpu: 50 * msec, cellLat: []time.Duration{1 * msec}, sweepLat: []time.Duration{10 * msec}},
		{cells: 10, wall: 400 * msec, cpu: 80 * msec, cellLat: []time.Duration{9 * msec}, sweepLat: []time.Duration{40 * msec}},
		{cells: 20, wall: 300 * msec, cpu: 60 * msec, cellLat: []time.Duration{2 * msec}, sweepLat: []time.Duration{30 * msec}},
		{cells: 10, wall: 200 * msec, cpu: 40 * msec, cellLat: []time.Duration{3 * msec}, sweepLat: []time.Duration{20 * msec}},
	}
	// By wall time per cell the order is 10ms (0), 15ms (2), 20ms (3), 40ms (1).
	q := summarize(rounds, 0.5)
	if q.rounds != 2 || q.cells != 30 {
		t.Fatalf("half: %d rounds, %d cells; want 2, 30", q.rounds, q.cells)
	}
	if q.rate != 30/0.4 || q.cpuPerCell != 110*msec/30 {
		t.Errorf("half: rate %v, CPU per cell %v; want 75, %v", q.rate, q.cpuPerCell, 110*msec/30)
	}
	if !slices.Equal(q.cellLat, []time.Duration{1 * msec, 2 * msec}) || !slices.Equal(q.sweepLat, []time.Duration{10 * msec, 30 * msec}) {
		t.Errorf("half pooled %v and %v, want rounds 0 and 2", q.cellLat, q.sweepLat)
	}
	if all := summarize(rounds, 1); all.rounds != 4 || all.cells != 50 || all.rate != 50 {
		t.Errorf("all: %d rounds, %d cells, rate %v; want 4, 50, 50", all.rounds, all.cells, all.rate)
	}
	if one := summarize(rounds, 0.01); one.rounds != 1 || one.cells != 10 {
		t.Errorf("tiny share: %d rounds, %d cells; want the single fastest", one.rounds, one.cells)
	}
	if none := summarize(nil, 0.5); none.rounds != 0 || none.rate != 0 {
		t.Errorf("no rounds: %+v", none)
	}
}

func TestWorkloadsAreSeeded(t *testing.T) {
	for _, name := range workloadNames {
		for _, tiny := range []bool{false, true} {
			a, _ := newWorkload(name, 7, tiny)
			b, _ := newWorkload(name, 7, tiny)
			c, _ := newWorkload(name, 8, tiny)
			// Generation order must not matter: draw b's sweeps backwards.
			var sa, sb, sc []any
			for i := 0; i < 6; i++ {
				sa = append(sa, a.sweep(i))
				sc = append(sc, c.sweep(i))
			}
			for i := 5; i >= 0; i-- {
				sb = append([]any{b.sweep(i)}, sb...)
			}
			if !reflect.DeepEqual(sa, sb) || !reflect.DeepEqual(a.corpus, b.corpus) {
				t.Errorf("%s tiny=%v: same seed gave different sweeps", name, tiny)
			}
			if reflect.DeepEqual(sa, sc) {
				t.Errorf("%s tiny=%v: seeds 7 and 8 gave the same sweeps", name, tiny)
			}
			if reflect.DeepEqual(a.sweep(0), a.sweep(1)) {
				t.Errorf("%s tiny=%v: consecutive sweeps are identical", name, tiny)
			}
		}
	}
	if _, err := newWorkload("nope", 1, false); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestGridShapes(t *testing.T) {
	cells := func(wl *workload, i int) int {
		c, err := wl.sweep(i).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return c.NumCells()
	}
	cg, _ := newWorkload("cold-grid", 1, false)
	kt, _ := newWorkload("kilotile", 1, false)
	wr, _ := newWorkload("warm-replay", 1, false)
	for i, want := range []int{16, 8, 8, 16} {
		if n := cells(cg, i); n != want {
			t.Errorf("cold-grid sweep %d has %d cells, want %d", i, n, want)
		}
		if n := cells(wr, i); n != 10*want {
			t.Errorf("warm-replay sweep %d has %d cells, want %d", i, n, 10*want)
		}
	}
	if n := cells(kt, 0); n != 5 {
		t.Errorf("kilotile sweep has %d cells, want 5", n)
	}
	corpus, err := wr.corpus.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if n := corpus.NumCells(); n != 256 || wr.cacheEntries != 32 {
		t.Errorf("warm-replay corpus %d cells, memory tier %d; want 256 and 32", n, wr.cacheEntries)
	}
	// Zipf ranks alternate mix kinds, so replay sweeps draw both alike.
	kinds := map[string]int{}
	for i := 0; i < 20; i++ {
		for _, m := range wr.sweep(i).Mixes[:replayMixes] {
			kinds[m.Kind]++
		}
	}
	if st, mt := kinds[cdcs.MixRandom], kinds[cdcs.MixRandomMT]; st+mt != 20*replayMixes || st < 3*mt/4 || mt < 3*st/4 {
		t.Errorf("replay sweeps draw kinds %v: not balanced", kinds)
	}
	// Every replay sweep holds exactly one mix outside the corpus.
	inCorpus := map[string]bool{}
	for _, m := range wr.corpus.Mixes {
		inCorpus[m.Label()] = true
	}
	for i := 0; i < 20; i++ {
		fresh := 0
		for _, m := range wr.sweep(i).Mixes {
			if !inCorpus[m.Label()] {
				fresh++
			}
		}
		if fresh != 1 {
			t.Errorf("replay sweep %d has %d fresh mixes, want 1", i, fresh)
		}
	}
}

func TestZipfRanks(t *testing.T) {
	if a, b := zipfRanks(3, 32, 19), zipfRanks(3, 32, 19); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different ranks: %v vs %v", a, b)
	}
	first := map[int]int{}
	for seed := int64(0); seed < 200; seed++ {
		rs := zipfRanks(seed, 32, 19)
		if len(rs) != 19 {
			t.Fatalf("seed %d: %d ranks", seed, len(rs))
		}
		sorted := append([]int(nil), rs...)
		sort.Ints(sorted)
		for i, r := range sorted {
			if r < 0 || r >= 32 || (i > 0 && r == sorted[i-1]) {
				t.Fatalf("seed %d: ranks %v not distinct in [0,32)", seed, rs)
			}
		}
		first[rs[0]]++
	}
	// Skew: the hottest rank leads the draw far more often than a cold one.
	if first[0] <= 4*first[16] {
		t.Errorf("rank 0 first %d times vs rank 16 %d times: not Zipf-skewed", first[0], first[16])
	}
	// A draw that wants every rank still terminates with all of them.
	if rs := zipfRanks(1, 8, 8); len(rs) != 8 {
		t.Errorf("full draw returned %d ranks", len(rs))
	}
}

func TestStoreDeltaArithmetic(t *testing.T) {
	snap := func(memH, memM, diskH, diskM, peerH, peerM, coal int64, diskEntries int, diskBytes int64) server.Stats {
		return server.Stats{Cache: resultstore.Stats{
			Tiers: []resultstore.TierStats{
				{Name: "memory", Hits: memH, Misses: memM},
				{Name: "disk", Hits: diskH, Misses: diskM, Entries: diskEntries, Bytes: diskBytes},
				{Name: "peer", Hits: peerH, Misses: peerM},
			},
			Coalesced: coal,
		}}
	}
	before := []server.Stats{snap(5, 5, 1, 4, 0, 4, 1, 10, 1000), snap(0, 0, 0, 0, 0, 0, 0, 0, 0)}
	after := []server.Stats{snap(15, 35, 21, 14, 4, 10, 3, 40, 4000), snap(10, 30, 10, 20, 6, 14, 2, 20, 2000)}
	d := diffStores(before, after)
	// memory: hits 10+10, misses 30+30 → 20/80.
	if got := d.hitRatio("memory"); got != 0.25 {
		t.Errorf("memory hit ratio %v, want 0.25", got)
	}
	// disk: hits 20+10, misses 10+20 → 30/60.
	if got := d.hitRatio("disk"); got != 0.5 {
		t.Errorf("disk hit ratio %v, want 0.5", got)
	}
	// peer: hits 4+6, misses 6+14 → 10/30.
	if got := d.hitRatio("peer"); got != 10.0/30 {
		t.Errorf("peer hit ratio %v, want 1/3", got)
	}
	if d.tiers["peer"].Hits != 10 || d.coalesced != 4 {
		t.Errorf("peer hits %d coalesced %d, want 10 and 4", d.tiers["peer"].Hits, d.coalesced)
	}
	// bytes per entry uses end values: (4000+2000)/(40+20).
	if got := d.bytesPerEntry("disk"); got != 100 {
		t.Errorf("disk bytes per entry %v, want 100", got)
	}
	if got := d.hitRatio("absent"); got != 0 {
		t.Errorf("absent tier ratio %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // clipped at 100
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 50 - 10, "a": 30 - 10 + 30, "b": 30, "c": 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(r *report) []string {
	var out []string
	for _, m := range r.metrics {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at tiny size, untraced twice and traced
// once: outputs must check out, the digest must repeat, and the metric
// names must be exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts in-process fleets")
	}
	wantE2E, wantLayer := declared(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 5, seconds: 0.2, workdir: t.TempDir(), tiny: true}
			r1, err := run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			o.trace = true
			r3, err := run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range []*report{r1, r2, r3} {
				if r.failed != 0 || r.attempted == 0 {
					t.Errorf("run %d: %d of %d cells failed", i, r.failed, r.attempted)
				}
			}
			if r1.digest != r2.digest || r1.digest != r3.digest || r1.digest == "incomplete" {
				t.Errorf("digests differ across runs of one seed: %s %s %s", r1.digest, r2.digest, r3.digest)
			}
			if got := names(r1); !reflect.DeepEqual(got, wantE2E) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, wantE2E)
			}
			if got := names(r3); !reflect.DeepEqual(got, wantLayer) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, wantLayer)
			}
			for _, m := range r1.metrics {
				if !(m.value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, m.value)
				}
			}
			// The traced window saw its replica handlers and its own
			// attempts, and the replay timed the simulator layers.
			layer := map[string]float64{}
			for _, m := range r3.metrics {
				layer[m.name] = m.value
			}
			for _, n := range []string{"fanout.cell_rtt_ms", "mesh.new_ms", "policy.build_ms.cdcs", "perfmodel.evaluate_ms", "cdcs.hash_us"} {
				if !(layer[n] > 0) {
					t.Errorf("per-layer metric %s = %v, want > 0", n, layer[n])
				}
			}
			if layer["server.hit_ms"]+layer["server.miss_ms"] <= 0 {
				t.Error("traced window recorded no replica handler spans")
			}
		})
	}
}
