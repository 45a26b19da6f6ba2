package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"cdcs/internal/fleet"
	"cdcs/internal/resultstore"
)

// This file is the dynamic-membership half of the serving layer: the
// join/leave/drain endpoints, gossip propagation of (members, epoch)
// snapshots over the existing peer links, graceful drain, and the warm-join
// client (JoinFleet) a starting replica uses to adopt the fleet's view and
// batch-fill its store from a seed peer before announcing itself.
//
// The registry itself (epoch rules, conflict resolution) lives in
// internal/fleet.Membership; this file is only its HTTP transport plus the
// server-side lifecycle that hangs off membership changes.

// Drain states. A replica serves normally (active), then refuses new work
// while finishing what it has (draining), then has left the member list and
// only answers read-side requests — blobs, manifest, metrics — until the
// process is retired (drained).
const (
	drainStateActive   int32 = 0
	drainStateDraining int32 = 1
	drainStateDrained  int32 = 2
)

// newInstanceID mints the identity token /healthz carries: random, fresh
// per process, so a restarted replica on a reused address is recognized as
// a new instance (empty cache, clean record) rather than a revival.
func newInstanceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Timestamp fallback: uniqueness across restarts is all that's
		// needed, unpredictability is not.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// ID returns this server's instance identity token.
func (s *Server) ID() string { return s.id }

// refuseDraining rejects a work-accepting request while draining or
// drained, with a retryable status: 503 is what the fan-out client already
// treats as "try the next replica in the ranking", so a coordinator
// mid-sweep re-routes refused cells exactly like cells of a breaker-open
// replica, with zero failures.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	state := s.draining.Load()
	if state == drainStateActive {
		return false
	}
	status := "draining"
	if state == drainStateDrained {
		status = "drained"
	}
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, "replica is %s; retry on another member", status)
	return true
}

// drainStatus names the current drain state for response bodies.
func (s *Server) drainStatus() string {
	switch s.draining.Load() {
	case drainStateDraining:
		return "draining"
	case drainStateDrained:
		return "drained"
	}
	return "ok"
}

// handleDrain starts a graceful drain: the replica immediately refuses new
// work (retryable 503s steer it to other members), finishes the jobs it
// already accepted, leaves the member list once idle, and then idles as a
// read-only blob server until the operator retires the process. Idempotent:
// repeated drains report the current state.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if s.draining.CompareAndSwap(drainStateActive, drainStateDraining) {
		s.drains.Add(1)
		s.wg.Add(1)
		go s.drainLoop()
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"status": s.drainStatus(),
		"id":     s.id,
	})
}

// drainLoop waits for the job queue to empty and the last accepted job to
// finish, then removes this replica from the member list (gossiping the
// shrunk view to the survivors) and marks the drain complete.
func (s *Server) drainLoop() {
	defer s.wg.Done()
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
		_, active := s.jobs.counts()
		if active == 0 && s.jobs.depth() == 0 {
			if s.membership != nil && s.advertise != "" {
				s.membership.Leave(s.advertise)
			}
			s.draining.Store(drainStateDrained)
			return
		}
	}
}

// membershipMessage is the body of join/leave requests and of every
// membership response: an announcement names one URL; gossip carries a
// whole (members, epoch) snapshot. Responses always carry the responder's
// snapshot, so every exchange synchronizes both directions.
type membershipMessage struct {
	URL     string   `json:"url,omitempty"`
	Members []string `json:"members,omitempty"`
	Epoch   uint64   `json:"epoch,omitempty"`
}

// handleJoin admits a member. Two forms: {"url": ...} announces one new
// replica (the warm joiner's final step), {"members": [...], "epoch": N}
// gossips a snapshot from another member (applied under the epoch rules).
// Either way the response is this replica's resulting snapshot, and any
// local change gossips onward so the fleet converges.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	s.handleMembershipChange(w, r, s.membership.Join)
}

// handleLeave removes a member; forms and propagation mirror handleJoin.
// Announcing a leave for a URL that is not a member is a no-op, so retried
// leaves are safe.
func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	s.handleMembershipChange(w, r, s.membership.Leave)
}

// handleMembershipChange decodes an announcement-or-gossip body, applies it
// via change (Join or Leave) or Membership.Apply, and responds with the
// resulting snapshot. Gossip of local changes rides the registry's OnChange
// hook (see New), not this handler.
func (s *Server) handleMembershipChange(w http.ResponseWriter, r *http.Request, change func(string) bool) {
	var msg membershipMessage
	if err := decodeStrict(w, r, &msg); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	switch {
	case msg.URL != "":
		change(msg.URL)
	case len(fleet.Normalize(msg.Members)) > 0:
		s.membership.Apply(msg.Members, msg.Epoch)
	default:
		// Gossip with no members is malformed: a fleet always has one.
		writeErr(w, http.StatusBadRequest, "need url (announcement) or a non-empty members list (gossip)")
		return
	}
	members, epoch := s.membership.Snapshot()
	writeJSON(w, http.StatusOK, membershipMessage{Members: members, Epoch: epoch})
}

// handleMembers reports the replica's current membership view.
func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	members, epoch := s.membership.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"members": members,
		"epoch":   epoch,
		"id":      s.id,
		"status":  s.drainStatus(),
	})
}

// manifestLister is the store surface manifest export needs; the default
// tier chain implements it.
type manifestLister interface {
	LocalKeys() []string
}

// handleManifest lists the content addresses this replica's local tiers
// hold — the corpus a warm joiner batch-fills from via /v1/blob/{hash}.
// Stays up while draining: a draining replica's corpus is exactly what the
// survivors may want to copy out.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	var keys []string
	if ml, ok := s.cache.(manifestLister); ok {
		keys = ml.LocalKeys()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"keys":  keys,
		"count": len(keys),
	})
}

// propagate gossips a membership snapshot to every member except this
// replica, in the background. Each response carries the receiver's own
// snapshot and is applied locally, so a receiver holding a *newer* view
// corrects this replica in the same exchange. Deliveries are best-effort —
// a member that misses gossip converges later through any exchange with a
// member that has the newer epoch (every response resynchronizes) — and the
// recursion terminates because snapshots only propagate when they changed
// the receiver's view, which epoch monotonicity bounds.
func (s *Server) propagate(members []string, epoch uint64) {
	// Targets are the union of the previous and new lists: members just
	// removed still get the shrunk snapshot, so a kicked replica learns it
	// is out instead of holding a stale self-including view.
	s.gossipMu.Lock()
	prev := s.gossipPrev
	s.gossipPrev = members
	s.gossipMu.Unlock()
	seen := map[string]bool{}
	var targets []string
	for _, u := range without(append(append([]string(nil), members...), prev...), s.advertise) {
		if !seen[u] {
			seen[u] = true
			targets = append(targets, u)
		}
	}
	if len(targets) == 0 {
		return
	}
	body, err := json.Marshal(membershipMessage{Members: members, Epoch: epoch})
	if err != nil {
		return
	}
	for _, target := range targets {
		target := target
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			req, err := http.NewRequestWithContext(s.ctx, http.MethodPost, target+"/v1/join", bytes.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := s.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var theirs membershipMessage
			if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&theirs) == nil {
				s.membership.Apply(theirs.Members, theirs.Epoch)
			}
		}()
	}
}

// JoinStats summarizes a JoinFleet run.
type JoinStats struct {
	// Seed is the peer joined through.
	Seed string `json:"seed"`
	// Members is the fleet size after joining.
	Members int `json:"members"`
	// Keys is the seed's manifest size; Filled counts entries fetched and
	// stored locally, Present entries already held, Failed per-key fetch
	// errors (tolerated — a failed key is simply served cold later).
	Keys    int `json:"keys"`
	Filled  int `json:"filled"`
	Present int `json:"present"`
	Failed  int `json:"failed"`
	// Elapsed is the whole join's wall time.
	Elapsed time.Duration `json:"elapsed"`
}

// joinFillWorkers bounds concurrent warm-fill blob fetches.
const joinFillWorkers = 8

// warmFiller is the store surface a warm fill needs — uncounted local
// lookups and write-through puts; the default tier chain implements it.
type warmFiller interface {
	GetLocal(key string) ([]byte, bool)
	Put(key string, val []byte)
}

// JoinFleet joins the fleet through the seed peer in Options.Join: adopt
// the seed's membership view, batch-fill the local store from the seed's
// corpus manifest (so the replica starts *warm* — cells the fleet already
// computed are served from local tiers with zero simulations), and only
// then announce Options.Advertise to the fleet. Call it after the listener
// is serving (peers learning of this replica will probe it back).
//
// Per-key fill failures are tolerated — a missing entry just means that
// cell is served cold later — but a failure to reach the seed's membership,
// manifest or join endpoint aborts the join with the fleet unchanged: a
// replica that cannot complete the handshake never becomes a member.
func (s *Server) JoinFleet(ctx context.Context) (JoinStats, error) {
	st := JoinStats{Seed: fleet.NormalizeURL(s.opts.Join)}
	if st.Seed == "" {
		return st, fmt.Errorf("server: JoinFleet without Options.Join")
	}
	if s.membership == nil || s.advertise == "" {
		return st, fmt.Errorf("server: JoinFleet requires Advertise")
	}
	start := time.Now()

	// 1. Adopt the seed's view of the fleet, so the peer tier and routing
	// already know the members while the fill below runs.
	var view membershipMessage
	if err := s.getJSON(ctx, st.Seed+"/v1/members", &view); err != nil {
		return st, fmt.Errorf("server: join %s: members: %w", st.Seed, err)
	}
	s.membership.Apply(view.Members, view.Epoch)

	// 2. Fetch the seed's corpus manifest and batch-fill everything the
	// local tiers don't already hold.
	var manifest struct {
		Keys  []string `json:"keys"`
		Count int      `json:"count"`
	}
	if err := s.getJSON(ctx, st.Seed+"/v1/manifest", &manifest); err != nil {
		return st, fmt.Errorf("server: join %s: manifest: %w", st.Seed, err)
	}
	st.Keys = len(manifest.Keys)
	if filler, ok := s.cache.(warmFiller); ok && len(manifest.Keys) > 0 {
		var (
			mu   sync.Mutex
			wg   sync.WaitGroup
			work = make(chan string)
		)
		for w := 0; w < joinFillWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for key := range work {
					if _, ok := filler.GetLocal(key); ok {
						mu.Lock()
						st.Present++
						mu.Unlock()
						continue
					}
					val, err := resultstore.FetchBlob(ctx, s.client, st.Seed, key)
					mu.Lock()
					if err != nil || val == nil { // val nil: the seed no longer holds key
						st.Failed++
					} else {
						filler.Put(key, val)
						st.Filled++
					}
					mu.Unlock()
				}
			}()
		}
		for _, key := range manifest.Keys {
			work <- key
		}
		close(work)
		wg.Wait()
	}

	// 3. Announce: only now does the fleet route cells here — with the
	// corpus already local, they are served warm. The announcement response
	// is the seed's post-join snapshot; adopting it lands this replica's
	// own URL in its member list.
	body, err := json.Marshal(membershipMessage{URL: s.advertise})
	if err != nil {
		return st, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.Seed+"/v1/join", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return st, fmt.Errorf("server: join %s: announce: %w", st.Seed, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return st, fmt.Errorf("server: join %s: announce: %s: %s", st.Seed, resp.Status, bytes.TrimSpace(b))
	}
	var joined membershipMessage
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&joined); err != nil {
		return st, fmt.Errorf("server: join %s: announce response: %w", st.Seed, err)
	}
	s.membership.Apply(joined.Members, joined.Epoch)

	st.Members = len(s.membership.Members())
	st.Elapsed = time.Since(start)
	return st, nil
}

// getJSON issues one GET and decodes the JSON response into v.
func (s *Server) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(v)
}
