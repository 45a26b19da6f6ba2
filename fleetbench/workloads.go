package main

// Workload generation. Every request is a pure function of (workload, seed,
// sweep index): the same seed yields the same sweeps in the same order, and
// the program under test only ever sees the generated SweepRequests.

import (
	"fmt"
	"math/rand"

	"cdcs"
)

// workload describes one named traffic mix against the fleet.
type workload struct {
	name string
	// cacheEntries bounds each replica's memory tier in the measured fleet.
	// corpus, when non-nil, is written through the fleet during set-up
	// (with the server's default memory tier); the fleet is then restarted
	// on the same directories with the bounded one.
	corpus       *cdcs.SweepRequest
	cacheEntries int
	// sweep returns the i-th sweep of the measured window.
	sweep func(i int) cdcs.SweepRequest
	// period is how many sweeps make one round: the pattern of sweep shapes
	// repeats every round, and the window ends on a round boundary.
	period int
	// digestSweeps is how many leading sweeps the result digest covers;
	// minSweeps is the fewest sweeps a window runs (at least digestSweeps).
	digestSweeps, minSweeps int
	// tailPct is the cell_tail_ms percentile: the highest rung of
	// tailLadder with at least tailMinBeyond cells beyond it at the
	// workload's nominal window size. It is fixed per workload so that a
	// change that completes more cells does not move the tail to a higher
	// percentile (see tail).
	tailPct float64
	// quietShare is the share of rounds, the fastest by wall time per cell,
	// that the time metrics pool (see summarize).
	quietShare float64
	// setupRepeats is how many times set-up runs; setup_s is their median.
	setupRepeats int
}

var workloadNames = []string{"cold-grid", "kilotile", "warm-replay"}

// newWorkload builds the named workload for a seed. tiny shrinks every
// dimension to smoke-test size (a few 4×4-to-12×12 cells per sweep).
func newWorkload(name string, seed int64, tiny bool) (*workload, error) {
	switch name {
	case "cold-grid":
		return coldGrid(seed, tiny), nil
	case "kilotile":
		return kilotile(seed, tiny), nil
	case "warm-replay":
		return warmReplay(seed, tiny)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// gridAxes is the paper-scale config grid cold-grid and warm-replay share:
// 2 meshes × 2 bank sizes × 2 hop latencies = 8 configs per mix. Without
// full only the paper's 8×8 mesh is swept.
func gridAxes(tiny, full bool) cdcs.SweepRequest {
	req := cdcs.SweepRequest{
		Mesh:       []cdcs.MeshSize{{Width: 8, Height: 8}, {Width: 16, Height: 16}},
		BankKB:     []int{256, 512},
		HopLatency: []float64{2, 4},
	}
	if tiny {
		req.Mesh = []cdcs.MeshSize{{Width: 4, Height: 4}, {Width: 4, Height: 6}}
		req.BankKB = []int{256}
	}
	if !full {
		req.Mesh = req.Mesh[:1]
	}
	return req
}

// fullGrid reports whether the i-th sweep spans both meshes. One sweep in
// three does, the others sweep 8×8 only, so 8×8 cells are three quarters of
// all cells and full-grid sweeps a third of all sweeps: the cell and sweep
// medians then fall inside one mesh's latency mode rather than in the gap
// between the two, where they would swing with the modes' extremes.
func fullGrid(i int) bool { return i%gridPeriod == 0 }

const gridPeriod = 3

// gridMix is the j-th mix kind of a cold-grid-style sweep: single-threaded
// (64 apps) for even j, 8-thread (8 apps) for odd j — 64 threads either way.
func gridMix(j int, mixSeed int64, tiny bool) cdcs.MixSpec {
	st, mt := 64, 8
	if tiny {
		st, mt = 8, 1
	}
	if j%2 == 0 {
		return cdcs.MixSpec{Kind: cdcs.MixRandom, Seed: mixSeed, N: st}
	}
	return cdcs.MixSpec{Kind: cdcs.MixRandomMT, Seed: mixSeed, N: mt}
}

// coldSetups is the cold workloads' set-up count: a cold set-up takes
// ~15ms, mostly the warm-up cells, and single ones jitter by 2× with
// scheduling, so their median needs many.
const coldSetups = 51

// coldEntries bounds the memory tier of the cold workloads' replicas. A
// cold-grid window fills it within seconds, so peak RSS does not grow with
// the number of cells a run completes, as it would with the server's
// default of 4096 entries, which a 25s window never fills.
const coldEntries = 256

// coldGrid: every sweep is the paper-scale grid (see fullGrid) over two
// fresh mixes (one single-threaded, one multithreaded) with all five
// schemes, so every cell simulates and is written exactly once.
func coldGrid(seed int64, tiny bool) *workload {
	return &workload{
		name:         "cold-grid",
		cacheEntries: coldEntries,
		sweep: func(i int) cdcs.SweepRequest {
			req := gridAxes(tiny, fullGrid(i))
			req.Mixes = []cdcs.MixSpec{
				gridMix(0, derive(seed, 1, int64(i)), tiny),
				gridMix(1, derive(seed, 2, int64(i)), tiny),
			}
			req.Seed = derive(seed, 3, int64(i))
			return req
		},
		period:       gridPeriod,
		digestSweeps: 4,
		minSweeps:    4,
		// ~1,800 cells in the quiet half of a 25s window: p99 would rest on
		// 18 cells beyond it and drop a rung on a slow host.
		tailPct: 95,
		// A round is ~0.2s of identically shaped sweeps, shorter than the
		// bursts of a shared host: the fastest half of them are the ones
		// the bursts missed.
		quietShare:   0.5,
		setupRepeats: coldSetups,
	}
}

// kilotile: cold sweeps of one 256-app mix across the kilotile meshes, so
// topology construction and placement dominate and the serving layers idle.
func kilotile(seed int64, tiny bool) *workload {
	meshes := []cdcs.MeshSize{{Width: 32, Height: 32}, {Width: 48, Height: 48},
		{Width: 64, Height: 64}, {Width: 96, Height: 96}, {Width: 128, Height: 128}}
	apps := 256
	if tiny {
		meshes = []cdcs.MeshSize{{Width: 8, Height: 8}, {Width: 12, Height: 12}}
		apps = 16
	}
	return &workload{
		name:         "kilotile",
		cacheEntries: coldEntries,
		sweep: func(i int) cdcs.SweepRequest {
			return cdcs.SweepRequest{
				Mesh:    meshes,
				Mixes:   []cdcs.MixSpec{{Kind: cdcs.MixRandom, Seed: derive(seed, 1, int64(i)), N: apps}},
				Schemes: []string{"S-NUCA", "Jigsaw+R", "CDCS"},
				Seed:    derive(seed, 3, int64(i)),
			}
		},
		period:       1,
		digestSweeps: 1,
		// 8 sweeps are 40 cells, the fewest that keep 10 beyond p75.
		minSweeps: 8,
		tailPct:   75,
		// A round is one ~2s sweep and a window about ten of them: too few
		// to leave any out, so every round counts.
		quietShare:   1,
		setupRepeats: coldSetups,
	}
}

// Warm-replay shape: the corpus holds corpusMixes mixes on the full grid;
// each replay sweep (see fullGrid) draws replayMixes distinct corpus mixes
// by Zipf rank and adds one new mix, so 1/(replayMixes+1) = 5% of its cells
// are fresh.
const (
	corpusMixes = 32
	replayMixes = 19
	zipfS       = 1.1
)

// warmReplay: set-up writes a corpus of cold-grid-style cells and restarts
// the fleet with a memory tier of 1/8 of the corpus; the window replays
// overlapping Zipf-skewed sweeps over it.
func warmReplay(seed int64, tiny bool) (*workload, error) {
	nCorpus, nReplay := corpusMixes, replayMixes
	if tiny {
		nCorpus, nReplay = 4, 3
	}
	corpus := gridAxes(tiny, true)
	for j := 0; j < nCorpus; j++ {
		corpus.Mixes = append(corpus.Mixes, gridMix(j, derive(seed, 4, int64(j)), tiny))
	}
	corpus.Seed = derive(seed, 3, 0)
	canon, err := corpus.Canonical()
	if err != nil {
		return nil, err
	}
	cells := canon.NumCells()
	// rankMix maps Zipf rank to corpus mix: ranks alternate between the
	// single- and multithreaded halves of the corpus, so every seed's hot
	// set holds both kinds alike, and each half is shuffled, so which mixes
	// are hot varies with the seed.
	rng := rand.New(rand.NewSource(derive(seed, 5, 0)))
	half := [2][]int{rng.Perm(nCorpus / 2), rng.Perm(nCorpus / 2)}
	rankMix := func(r int) cdcs.MixSpec {
		kind := r % 2 // gridMix: even corpus indices are single-threaded
		return corpus.Mixes[2*half[kind][r/2]+kind]
	}
	return &workload{
		name:         "warm-replay",
		corpus:       &corpus,
		cacheEntries: max(1, cells/8),
		sweep: func(i int) cdcs.SweepRequest {
			req := gridAxes(tiny, fullGrid(i))
			for _, r := range zipfRanks(derive(seed, 6, int64(i)), nCorpus, nReplay) {
				req.Mixes = append(req.Mixes, rankMix(r))
			}
			req.Mixes = append(req.Mixes, gridMix(i, derive(seed, 7, int64(i)), tiny))
			req.Seed = corpus.Seed
			return req
		},
		// The fresh mix alternates single- and multithreaded by sweep, so
		// only two grid periods make rounds that all cost alike.
		period:       2 * gridPeriod,
		digestSweeps: 1,
		minSweeps:    1,
		tailPct:      99, // ~8,500 cells per 25s window
		// A round is ~2s, longer than the bursts of a shared host, so
		// leaving out the slow ones picks rounds by their Zipf draws rather
		// than by the host: every round counts.
		quietShare:   1,
		setupRepeats: 5,
	}, nil
}

// zipfRanks draws k distinct ranks in [0, n) by Zipf(zipfS) weight, in draw
// order. Should the draws stall on the light tail, the lowest unused ranks
// fill the rest, so the result is always k ranks.
func zipfRanks(seed int64, n, k int) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	seen := make([]bool, n)
	out := make([]int, 0, k)
	for draws := 0; len(out) < k && draws < 64*n; draws++ {
		if r := int(z.Uint64()); !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for r := 0; len(out) < k; r++ {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// derive hashes (seed, stream, index) into a non-negative 31-bit seed with
// the splitmix64 finalizer, so every generated value depends only on its
// coordinates, never on generation order.
func derive(seed, stream, index int64) int64 {
	x := uint64(seed)
	for _, v := range []uint64{uint64(stream), uint64(index)} {
		x += 0x9e3779b97f4a7c15 ^ v
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 33)
}
