// Package fleet is the one authority on which HTTP replicas exist, what
// they are called, how they rank for a key and whether they are healthy.
// Every layer that talks to replicas — the sweep fan-out (internal/fanout),
// the result store's peer tier (internal/resultstore), the serving layer
// and the CLI — names replicas with Normalize, ranks them with Rank and
// reads the member set and its health from a *Fleet; none keeps a replica
// list of its own.
//
// A Fleet keeps per-replica load and latency instrumentation fed by every
// request, health-checked membership via periodic probes of each replica's
// /healthz, and a three-state circuit breaker per replica (closed → open
// after consecutive failures → half-open trial after a cooldown → closed on
// success), so replicas leave and rejoin the serving set live, without
// operator action. A fleet built with a negative ProbeInterval is the
// static case: request outcomes alone drive the breakers.
//
// The member set itself is mutable at runtime (SetMembers), and a fleet can
// follow the cluster's own membership protocol: replica /healthz responses
// carry an identity token, a membership epoch and the member list, and a
// fleet built with Options.AdoptMembers applies those snapshots to its view
// (via the epoch rules of Membership), so a coordinator discovers joins and
// drains mid-sweep without any out-of-band configuration. The identity
// token also distinguishes a *restarted* replica on a reused address from a
// revived one: a changed token resets the record (breaker, failure streak,
// latency EWMA), because the new process shares nothing but the address.
//
// Routing keeps the DistCache-style two-layer shape: Rank gives a key's
// rendezvous order over the members, and Order reorders it so the top-K
// holders stay the preferred servers (cache affinity) while the
// least-loaded healthy one among them goes first, so load skew steers
// requests without scattering the key across the whole fleet. Callers
// report request outcomes via Begin.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// State is a replica's circuit-breaker state.
type State int

const (
	// StateClosed: healthy, serving normally.
	StateClosed State = iota
	// StateOpen: tripped on consecutive failures; not routed to until the
	// cooldown elapses (except as a last resort when nothing else is left).
	StateOpen
	// StateHalfOpen: cooldown elapsed; trial traffic admitted. A success
	// closes the breaker, a failure re-opens it.
	StateHalfOpen
)

// String implements fmt.Stringer with the conventional breaker names.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Options tunes a Fleet. The zero value picks sensible defaults.
type Options struct {
	// ProbeInterval is the period of the background /healthz probes
	// (default 2s). Negative disables probing entirely — request outcomes
	// alone then drive the breakers, so a dead replica is only noticed
	// when traffic hits it.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 1s).
	ProbeTimeout time.Duration
	// ProbePath is the liveness endpoint probed on each replica (default
	// "/healthz").
	ProbePath string
	// BreakerThreshold is the number of consecutive failures (requests or
	// probes) that opens a replica's breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// half-open trial traffic (default 4×ProbeInterval, at least 1s).
	BreakerCooldown time.Duration
	// EWMAAlpha is the smoothing factor of the per-replica latency EWMA
	// (default 0.3; higher tracks faster).
	EWMAAlpha float64
	// TopK is how many of a key's top rendezvous holders compete on load
	// in Order (default 2; 1 restores pure rendezvous routing).
	TopK int
	// Client issues the probes (default: a client with ProbeTimeout).
	Client *http.Client
	// AdoptMembers makes the member set dynamic: membership snapshots
	// carried in probed healthz responses are applied (under Membership's
	// epoch rules) and the fleet re-targets its probes and routing to the
	// adopted list. Without it the member set given to New is fixed unless
	// the caller drives SetMembers itself.
	AdoptMembers bool
	// OnMembership, if set, is invoked after every member-set change (from
	// SetMembers or an adopted snapshot) with the new list and epoch.
	// Called outside fleet locks; must be safe for concurrent use.
	OnMembership func(members []string, epoch uint64)
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.ProbePath == "" {
		o.ProbePath = "/healthz"
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 4 * o.ProbeInterval
		if o.BreakerCooldown < time.Second {
			o.BreakerCooldown = time.Second
		}
	}
	if o.EWMAAlpha <= 0 || o.EWMAAlpha > 1 {
		o.EWMAAlpha = 0.3
	}
	if o.TopK <= 0 {
		o.TopK = 2
	}
	return o
}

// rpsBuckets is the sliding-window width, in seconds, of the RPS estimate.
const rpsBuckets = 8

// replica is one member's live record. All mutable fields are guarded by mu.
type replica struct {
	url string

	mu           sync.Mutex
	id           string // instance identity token from healthz ("" until seen)
	incarnations int64  // identity-token changes observed (restarts detected)
	state        State
	consecFails  int
	openedAt     time.Time // when the breaker last opened
	ewmaMs       float64   // EWMA of successful request service latency
	inflight     int
	requests     int64 // completed requests (not probes)
	errors       int64 // failed requests (not probes)
	trips        int64 // closed → open transitions
	buckets      [rpsBuckets]int64
	lastSec      int64
}

// healthzInfo is the identity and membership payload replicas embed in
// /healthz responses (internal/server emits it; extra fields are ignored).
type healthzInfo struct {
	Status  string   `json:"status"`
	ID      string   `json:"id"`
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
}

// Fleet is the live view. Create with New, start the prober with Start,
// release with Close. All methods are safe for concurrent use.
type Fleet struct {
	opts Options

	mu   sync.RWMutex // guards urls and reps (the member set)
	urls []string
	reps map[string]*replica

	mem *Membership // non-nil with AdoptMembers: the followed registry

	ctx       context.Context
	cancel    context.CancelFunc
	startOnce sync.Once
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// New builds a fleet view over replica base URLs (normalized with
// Normalize). The prober does not run until Start.
func New(replicas []string, opts Options) *Fleet {
	f := &Fleet{
		opts: opts.withDefaults(),
		reps: map[string]*replica{},
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	if f.opts.Client == nil {
		f.opts.Client = &http.Client{Timeout: f.opts.ProbeTimeout}
	}
	f.setMembersLocked(Normalize(replicas))
	if f.opts.AdoptMembers {
		f.mem = NewMembership(replicas)
		f.mem.OnChange(func(members []string, epoch uint64) {
			f.SetMembers(members)
			if f.opts.OnMembership != nil {
				f.opts.OnMembership(members, epoch)
			}
		})
	}
	return f
}

// Replicas returns the current member URLs, normalized and sorted.
func (f *Fleet) Replicas() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]string(nil), f.urls...)
}

// Membership returns the registry this fleet follows (nil unless built with
// AdoptMembers). Callers may Apply snapshots they obtain out of band — e.g.
// the body of a join announcement — and the fleet view follows.
func (f *Fleet) Membership() *Membership { return f.mem }

// SetMembers replaces the member set. Records of retained members (breaker
// state, latency, counters) survive; new members start fresh; removed
// members are dropped — their in-flight completion callbacks still run but
// update records no longer in the view. With AdoptMembers the set normally
// arrives via snapshots instead; calling SetMembers directly then only
// changes the view until the next snapshot.
func (f *Fleet) SetMembers(urls []string) {
	next := Normalize(urls)
	f.mu.Lock()
	f.setMembersLocked(next)
	f.mu.Unlock()
}

func (f *Fleet) setMembersLocked(next []string) {
	reps := make(map[string]*replica, len(next))
	for _, u := range next {
		if r, ok := f.reps[u]; ok {
			reps[u] = r
		} else {
			reps[u] = &replica{url: u}
		}
	}
	f.urls = next
	f.reps = reps
}

// Start launches the background health prober (a no-op when probing is
// disabled). Safe to call more than once.
func (f *Fleet) Start() {
	if f.opts.ProbeInterval < 0 {
		return
	}
	f.startOnce.Do(func() {
		f.wg.Add(1)
		go f.probeLoop()
	})
}

// Close stops the prober and waits for in-flight probes. Probes are bound
// to the fleet's context, so a probe blocked mid-dial is cancelled rather
// than awaited. Safe to call more than once, and without Start.
func (f *Fleet) Close() {
	f.stopOnce.Do(f.cancel)
	f.wg.Wait()
}

// probeLoop probes every member each tick, concurrently, so one hung
// replica cannot delay the others' verdicts.
func (f *Fleet) probeLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-t.C:
		}
		f.mu.RLock()
		targets := make([]*replica, 0, len(f.urls))
		for _, url := range f.urls {
			targets = append(targets, f.reps[url])
		}
		f.mu.RUnlock()
		var wg sync.WaitGroup
		for _, r := range targets {
			wg.Add(1)
			go func(r *replica) {
				defer wg.Done()
				f.probeOne(r)
			}(r)
		}
		wg.Wait()
	}
}

// probeOne issues one liveness probe and feeds its verdict into the breaker.
// Probes drive membership only: they never touch the latency EWMA or the
// request counters, so an idle fleet's metrics stay request-shaped. The
// probe context descends from the fleet's, so Close aborts a blocked dial.
//
// Any parseable response body — healthy or not — may carry the replica's
// identity and a membership snapshot; a draining replica answers 503 but
// still propagates the member list it is leaving.
func (f *Fleet) probeOne(r *replica) {
	ctx, cancel := context.WithTimeout(f.ctx, f.opts.ProbeTimeout)
	defer cancel()
	ok := false
	var info healthzInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+f.opts.ProbePath, nil)
	if err == nil {
		resp, rerr := f.opts.Client.Do(req)
		if rerr == nil {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
			_ = json.Unmarshal(body, &info)
		}
	}
	r.mu.Lock()
	if info.ID != "" {
		r.observeIdentityLocked(info.ID)
	}
	if ok {
		r.successLocked()
	} else {
		r.failureLocked(f.opts.BreakerThreshold, time.Now())
	}
	r.mu.Unlock()
	if f.mem != nil {
		f.mem.Apply(info.Members, info.Epoch)
	}
}

// observeIdentityLocked records the instance identity a response carried.
// A changed token means a different process answered on a reused address —
// a restart, not a revival — so everything learned about the old instance
// (breaker verdict, failure streak, latency EWMA) is discarded: the new
// instance starts with a clean record and, crucially, an empty cache, so a
// stale "dead" or "slow" verdict must not suppress or distort traffic to it.
func (r *replica) observeIdentityLocked(id string) {
	if r.id == id {
		return
	}
	if r.id != "" {
		r.incarnations++
		r.state = StateClosed
		r.consecFails = 0
		r.openedAt = time.Time{}
		r.ewmaMs = 0
	}
	r.id = id
}

// successLocked resets the failure streak and closes the breaker: a replica
// that answers — trial traffic in half-open, a probe after a restart — has
// rejoined.
func (r *replica) successLocked() {
	r.consecFails = 0
	r.state = StateClosed
}

// failureLocked advances the failure streak and the breaker state machine.
func (r *replica) failureLocked(threshold int, now time.Time) {
	r.consecFails++
	switch r.state {
	case StateClosed:
		if r.consecFails >= threshold {
			r.state = StateOpen
			r.openedAt = now
			r.trips++
		}
	case StateHalfOpen:
		// Failed trial: back to open, restarting the cooldown. Not a new
		// trip — the original outage is still in progress.
		r.state = StateOpen
		r.openedAt = now
	case StateOpen:
		// A last-resort attempt failed while open; nothing changes.
	}
}

// usableLocked reports whether the replica may receive traffic, lazily
// promoting open → half-open once the cooldown elapses (the state
// transition that admits trial traffic).
func (r *replica) usableLocked(cooldown time.Duration, now time.Time) bool {
	switch r.state {
	case StateClosed, StateHalfOpen:
		return true
	default:
		if now.Sub(r.openedAt) >= cooldown {
			r.state = StateHalfOpen
			return true
		}
		return false
	}
}

// rep looks up a member record under the member-set lock.
func (f *Fleet) rep(url string) *replica {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.reps[url]
}

// Healthy reports whether url may receive traffic: breaker closed, or
// half-open (including an open breaker whose cooldown just elapsed).
// Unknown URLs are healthy — the view only vets its own members.
func (f *Fleet) Healthy(url string) bool {
	r := f.rep(url)
	if r == nil {
		return true
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.usableLocked(f.opts.BreakerCooldown, now)
}

// Begin records the start of one request to url and returns the completion
// callback: call it with the request's outcome (nil on success) and the
// view updates in-flight, latency EWMA, RPS, error counters and the
// breaker. Unknown URLs return a no-op callback.
func (f *Fleet) Begin(url string) func(err error) {
	r := f.rep(url)
	if r == nil {
		return func(error) {}
	}
	start := time.Now()
	r.mu.Lock()
	r.inflight++
	r.mu.Unlock()
	return func(err error) {
		now := time.Now()
		r.mu.Lock()
		defer r.mu.Unlock()
		r.inflight--
		r.requests++
		r.tickLocked(now.Unix())
		if err != nil {
			r.errors++
			r.failureLocked(f.opts.BreakerThreshold, now)
			return
		}
		ms := float64(now.Sub(start)) / float64(time.Millisecond)
		if r.ewmaMs == 0 {
			r.ewmaMs = ms
		} else {
			r.ewmaMs = f.opts.EWMAAlpha*ms + (1-f.opts.EWMAAlpha)*r.ewmaMs
		}
		r.successLocked()
	}
}

// tickLocked advances the RPS ring to sec and counts one request in it.
func (r *replica) tickLocked(sec int64) {
	if d := sec - r.lastSec; d > 0 {
		if d > rpsBuckets {
			d = rpsBuckets
		}
		for i := int64(0); i < d; i++ {
			r.buckets[(r.lastSec+1+i)%rpsBuckets] = 0
		}
		r.lastSec = sec
	}
	r.buckets[sec%rpsBuckets]++
}

// Order returns the routing order for candidates already ranked by
// rendezvous (Rank): the healthy replicas among the top-K holders
// first, least-loaded first (fewest in-flight requests, then lowest EWMA
// latency, then rendezvous position — so an idle fleet degenerates to pure
// rendezvous routing and keeps its cache affinity), followed by the
// remaining healthy candidates in rank order, with breaker-open replicas
// last as the final resort. Candidates the view does not track keep their
// rank positions and count as healthy.
func (f *Fleet) Order(ranked []string) []string {
	if len(ranked) < 2 {
		return ranked
	}
	type cand struct {
		url      string
		pos      int
		healthy  bool
		inflight int
		ewmaMs   float64
	}
	now := time.Now()
	cands := make([]cand, len(ranked))
	for i, url := range ranked {
		c := cand{url: url, pos: i, healthy: true}
		if r := f.rep(url); r != nil {
			r.mu.Lock()
			c.healthy = r.usableLocked(f.opts.BreakerCooldown, now)
			c.inflight = r.inflight
			c.ewmaMs = r.ewmaMs
			r.mu.Unlock()
		}
		cands[i] = c
	}
	k := f.opts.TopK
	if k > len(cands) {
		k = len(cands)
	}
	// The top-K healthy holders compete on load; everything after keeps
	// rank order within its health class.
	head := make([]cand, 0, k)
	var tail, down []cand
	for i, c := range cands {
		switch {
		case !c.healthy:
			down = append(down, c)
		case i < k:
			head = append(head, c)
		default:
			tail = append(tail, c)
		}
	}
	sort.SliceStable(head, func(i, j int) bool {
		if head[i].inflight != head[j].inflight {
			return head[i].inflight < head[j].inflight
		}
		if head[i].ewmaMs != head[j].ewmaMs {
			return head[i].ewmaMs < head[j].ewmaMs
		}
		return head[i].pos < head[j].pos
	})
	out := make([]string, 0, len(ranked))
	for _, c := range head {
		out = append(out, c.url)
	}
	for _, c := range tail {
		out = append(out, c.url)
	}
	for _, c := range down {
		out = append(out, c.url)
	}
	return out
}

// Alternate returns the first healthy replica among ranked's top-K holders
// other than exclude — the target a hot key is replicated to so a second
// warm copy exists inside the key's rendezvous neighborhood. Empty when no
// such holder exists.
func (f *Fleet) Alternate(ranked []string, exclude string) string {
	k := f.opts.TopK
	if k > len(ranked) {
		k = len(ranked)
	}
	for _, url := range ranked[:k] {
		if url != exclude && f.Healthy(url) {
			return url
		}
	}
	return ""
}

// ReplicaStats is one member's snapshot.
type ReplicaStats struct {
	URL string `json:"url"`
	// ID is the replica's instance identity token, as last seen in a
	// healthz response ("" until one is observed).
	ID string `json:"id,omitempty"`
	// State is the breaker state: "closed", "open" or "half-open".
	State string `json:"state"`
	// EWMALatencyMs is the smoothed service latency of successful requests,
	// in milliseconds (0 until the first success).
	EWMALatencyMs float64 `json:"ewma_latency_ms"`
	// Inflight is the number of requests currently outstanding.
	Inflight int `json:"inflight"`
	// RPS is the completed-request rate over the last few seconds.
	RPS float64 `json:"rps"`
	// Requests and Errors count completed and failed requests (probes are
	// membership-only and excluded).
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Trips counts closed → open breaker transitions.
	Trips int64 `json:"breaker_trips"`
	// Incarnations counts identity-token changes: how many times a new
	// process was detected answering on this address.
	Incarnations int64 `json:"incarnations,omitempty"`
}

// StateCode maps a ReplicaStats.State string to its numeric gauge value
// (closed=0, open=1, half-open=2), for metrics emission.
func StateCode(state string) int {
	switch state {
	case StateOpen.String():
		return 1
	case StateHalfOpen.String():
		return 2
	default:
		return 0
	}
}

// Snapshot returns per-replica stats in listing order.
func (f *Fleet) Snapshot() []ReplicaStats {
	now := time.Now()
	f.mu.RLock()
	targets := make([]*replica, 0, len(f.urls))
	for _, url := range f.urls {
		targets = append(targets, f.reps[url])
	}
	f.mu.RUnlock()
	out := make([]ReplicaStats, 0, len(targets))
	for _, r := range targets {
		r.mu.Lock()
		r.tickRPSOnlyLocked(now.Unix())
		var n int64
		for _, b := range r.buckets {
			n += b
		}
		out = append(out, ReplicaStats{
			URL:           r.url,
			ID:            r.id,
			State:         r.state.String(),
			EWMALatencyMs: r.ewmaMs,
			Inflight:      r.inflight,
			RPS:           float64(n) / rpsBuckets,
			Requests:      r.requests,
			Errors:        r.errors,
			Trips:         r.trips,
			Incarnations:  r.incarnations,
		})
		r.mu.Unlock()
	}
	return out
}

// tickRPSOnlyLocked expires stale RPS buckets without counting a request,
// so an idle replica's rate decays to zero between snapshots.
func (r *replica) tickRPSOnlyLocked(sec int64) {
	if d := sec - r.lastSec; d > 0 {
		if d > rpsBuckets {
			d = rpsBuckets
		}
		for i := int64(0); i < d; i++ {
			r.buckets[(r.lastSec+1+i)%rpsBuckets] = 0
		}
		r.lastSec = sec
	}
}

// Trips sums breaker trips across the fleet.
func (f *Fleet) Trips() int64 {
	var n int64
	for _, r := range f.Snapshot() {
		n += r.Trips
	}
	return n
}
