package main

// The layer replay: after a traced window, the cells of the digest sweeps
// are re-run in process, one layer call at a time — mesh.New,
// MixSpec.Build, policy.BuildWith per scheme (with core.Timing's phases as
// child spans) and perfmodel.Evaluate — and each scheme's result is
// rebuilt the way the simulator assembles it. The rebuilt results must
// equal the fleet's byte for byte: the replay constructs policy.Env the way
// cdcs.NewSystem does, so any drift between the two shows up here.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"cdcs"
	"cdcs/internal/mesh"
	"cdcs/internal/perfmodel"
	"cdcs/internal/place"
	"cdcs/internal/policy"
	simwl "cdcs/internal/workload"
)

// schemeKeys names the per-scheme policy metrics.
var schemeKeys = map[string]string{
	"S-NUCA": "snuca", "R-NUCA": "rnuca", "Jigsaw+C": "jigsaw_c", "Jigsaw+R": "jigsaw_r", "CDCS": "cdcs",
}

var policySchemes = []policy.Scheme{
	policy.SchemeSNUCA, policy.SchemeRNUCA, policy.SchemeJigsawC, policy.SchemeJigsawR, policy.SchemeCDCS,
}

// replayStats collects per-call layer timings from a replay.
type replayStats struct {
	cells      int
	mismatches []string
	meshNew    map[string][]time.Duration // by mesh size
	mixBuild   []time.Duration
	build      map[string][]time.Duration // by scheme name
	phases     map[string][]time.Duration // core.Timing phase → per-reconfiguration
	trades     []int                      // CDCS reconfigurations only
	evaluate   []time.Duration
	hash       []time.Duration
	cellsCall  []time.Duration
}

// replay re-runs the given sweeps' cells layer by layer, recording spans
// on tr, and checks every rebuilt result against the fleet's.
func replay(tr *tracer, sweeps []*cdcs.SweepResult) (*replayStats, error) {
	st := &replayStats{
		meshNew: map[string][]time.Duration{},
		build:   map[string][]time.Duration{},
		phases:  map[string][]time.Duration{},
	}
	for si, res := range sweeps {
		sweepID := int64(si)
		root := tr.newID()
		rootStart := time.Now()

		start := time.Now()
		if _, err := res.Request.Cells(); err != nil {
			return nil, fmt.Errorf("replay sweep %d: %w", si, err)
		}
		st.cellsCall = append(st.cellsCall, time.Since(start))
		tr.record(tr.newID(), root, sweepID, "cdcs.cells", start)

		for _, cell := range res.Cells {
			if err := st.replayCell(tr, root, sweepID, cell); err != nil {
				return nil, fmt.Errorf("replay cell %s: %w", cell.Hash[:12], err)
			}
		}
		tr.record(root, 0, sweepID, "sweep.replay", rootStart)
	}
	return st, nil
}

func (st *replayStats) replayCell(tr *tracer, parent, sweep int64, cell cdcs.SweepCellResult) error {
	st.cells++
	id := tr.newID()
	cellStart := time.Now()
	defer tr.record(id, parent, sweep, "cell.replay", cellStart)
	// timed runs f as a child span of the cell and returns its duration.
	timed := func(name string, f func()) time.Duration {
		start := time.Now()
		f()
		d := time.Since(start)
		tr.record(tr.newID(), id, sweep, name, start)
		return d
	}

	req := cell.Request
	cfg := *req.Config
	var hashErr error
	st.hash = append(st.hash, timed("cdcs.hash", func() { _, hashErr = req.Hash() }))
	if hashErr != nil {
		return hashErr
	}
	var topo *mesh.Topology
	size := fmt.Sprintf("%dx%d", cfg.MeshWidth, cfg.MeshHeight)
	st.meshNew[size] = append(st.meshNew[size], timed("mesh.new", func() { topo = mesh.New(cfg.MeshWidth, cfg.MeshHeight) }))
	env := envFor(cfg, topo)

	var buildErr error
	st.mixBuild = append(st.mixBuild, timed("workload.mix_build", func() { _, buildErr = req.Mix.Build() }))
	if buildErr != nil {
		return buildErr
	}
	// cdcs.Mix keeps its workload form private, so the replay derives the
	// same mix from the spec; the byte comparison below proves it matches.
	var mix *simwl.Mix
	timed("workload.seal", func() { mix, buildErr = workloadMix(req.Mix) })
	if buildErr != nil {
		return buildErr
	}

	for i, name := range req.Schemes {
		scheme, ok := policyScheme(name)
		if !ok {
			return fmt.Errorf("unknown scheme %q", name)
		}
		rng := rand.New(rand.NewSource(req.Seed + int64(i)))
		buildID := tr.newID()
		start := time.Now()
		sched, err := policy.BuildWith(env, scheme, mix, rng, nil)
		d := time.Since(start)
		if err != nil {
			return err
		}
		tr.record(buildID, id, sweep, "policy.build."+schemeKeys[name], start)
		st.build[name] = append(st.build[name], d)
		if sched.Core != nil {
			// core.Timing is measured inside Reconfigure; lay its phases out
			// back to back from the build's start as child spans.
			at := tr.ns(start)
			t := sched.Core.Timing
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"alloc", t.Alloc}, {"vc_place", t.VCPlace}, {"thread_place", t.ThreadPlace}, {"data_place", t.DataPlace}} {
				tr.add(span{ID: tr.newID(), Parent: buildID, Sweep: sweep, Name: "core." + ph.name, Start: at, End: at + int64(ph.d)})
				at += int64(ph.d)
				st.phases[ph.name] = append(st.phases[ph.name], ph.d)
			}
			if scheme.Kind == policy.CDCS {
				st.trades = append(st.trades, sched.Core.Trades)
			}
		}
		var chip perfmodel.ChipResult
		st.evaluate = append(st.evaluate, timed("perfmodel.evaluate", func() { chip = perfmodel.Evaluate(env.Params, sched.Inputs) }))

		var same bool
		timed("replay.check", func() { same, err = sameResult(resultOf(mix, sched, chip), cell.Comparison.Results[name]) })
		if err != nil {
			return err
		}
		if !same {
			st.mismatches = append(st.mismatches, fmt.Sprintf("cell %s scheme %s", cell.Hash[:12], name))
		}
	}
	return nil
}

// sameResult reports whether the rebuilt result marshals to the same bytes
// as the fleet's.
func sameResult(got cdcs.Result, want *cdcs.Result) (bool, error) {
	g, err := json.Marshal(got)
	if err != nil {
		return false, err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return false, err
	}
	return bytes.Equal(g, w), nil
}

// envFor builds the policy environment for a config the way
// cdcs.NewSystem does.
func envFor(cfg cdcs.Config, topo *mesh.Topology) policy.Env {
	env := policy.DefaultEnv()
	env.Chip = place.Chip{Topo: topo, BankLines: float64(cfg.BankKB) * 1024 / simwl.LineBytes}
	if cfg.BankLatency > 0 {
		env.Params.BankLatency = cfg.BankLatency
	}
	if cfg.HopLatency > 0 {
		env.Params.HopLatency = cfg.HopLatency
		env.Model.HopLatency = cfg.HopLatency
	}
	if cfg.MemLatency > 0 {
		env.Params.MemZeroLoad = cfg.MemLatency
		env.Model.MemLatency = cfg.MemLatency + env.Params.MemBurst
	}
	if cfg.MemChannels > 0 {
		env.Params.Channels = cfg.MemChannels
	}
	return env
}

// workloadMix derives and seals the workload mix a random spec builds.
func workloadMix(spec cdcs.MixSpec) (*simwl.Mix, error) {
	var m *simwl.Mix
	switch spec.Kind {
	case cdcs.MixRandom:
		m = simwl.RandomST(rand.New(rand.NewSource(spec.Seed)), simwl.SPECCPU(), spec.N)
	case cdcs.MixRandomMT:
		m = simwl.RandomMT(rand.New(rand.NewSource(spec.Seed)), simwl.SPECOMP(), spec.N)
	default:
		return nil, fmt.Errorf("replay supports random mixes only, not %q", spec.Kind)
	}
	m.Seal()
	return m, nil
}

func policyScheme(name string) (policy.Scheme, bool) {
	for _, s := range policySchemes {
		if s.Name() == name {
			return s, true
		}
	}
	return policy.Scheme{}, false
}

// resultOf assembles a scheme's public result from its schedule and the
// performance model's output, as the simulator does.
func resultOf(mix *simwl.Mix, sched policy.Sched, chip perfmodel.ChipResult) cdcs.Result {
	out := cdcs.Result{
		Scheme:           sched.Name,
		PerApp:           make([]float64, len(mix.Procs)),
		AggIPC:           chip.AggIPC,
		TrafficPerInstr:  chip.TrafficPerInstr.Total(),
		EnergyPJPerInstr: chip.EnergyPerInstr.Total(),
	}
	for p, proc := range mix.Procs {
		ipc := chip.Threads[proc.ThreadIDs[0]].IPC
		if proc.Multithreaded {
			// Barrier-coupled: the slowest thread sets the pace.
			for _, tid := range proc.ThreadIDs {
				ipc = min(ipc, chip.Threads[tid].IPC)
			}
		}
		out.PerApp[p] = ipc
	}
	var instr float64
	for _, t := range chip.Threads {
		out.OnChipPKI += t.IPC * t.OnChipPKI
		out.OffChipPKI += t.IPC * t.OffChipPKI
		instr += t.IPC
	}
	if instr > 0 {
		out.OnChipPKI /= instr
		out.OffChipPKI /= instr
	}
	for _, c := range sched.ThreadCore {
		out.ThreadCores = append(out.ThreadCores, int(c))
	}
	for _, sz := range sched.VCSizes {
		out.VCSizesMB = append(out.VCSizesMB, sz/simwl.LinesPerMB)
	}
	return out
}

// meshNewMs is the mean, over distinct mesh sizes, of each size's median
// mesh.New time — one figure per topology a cell can ask for.
func (st *replayStats) meshNewMs() float64 {
	if len(st.meshNew) == 0 {
		return 0
	}
	var sum float64
	for _, ds := range st.meshNew {
		sum += ms(median(ds))
	}
	return sum / float64(len(st.meshNew))
}

// meshSizes lists each distinct mesh's median mesh.New time, by size.
func (st *replayStats) meshSizes() string {
	var parts []string
	for size, ds := range st.meshNew {
		parts = append(parts, fmt.Sprintf("%s=%.3fms", size, ms(median(ds))))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
