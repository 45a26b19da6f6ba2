package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// liveServer starts a server on a real listener with dynamic membership:
// Advertise is derived from the bound address the way `cdcs-serve
// -advertise auto` does, so gossip and warm joins run over real HTTP.
func liveServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	opts.Advertise = url
	s, err := New(opts)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { s.Close(); hs.Close() })
	return s, url
}

// membersOf polls GET /v1/members on url.
func membersOf(t *testing.T, url string) (members []string, epoch uint64, status string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/members")
	if err != nil {
		t.Fatalf("GET %s/v1/members: %v", url, err)
	}
	defer resp.Body.Close()
	var body struct {
		Members []string `json:"members"`
		Epoch   uint64   `json:"epoch"`
		Status  string   `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Members, body.Epoch, body.Status
}

func waitUntil(t *testing.T, pred func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestMembershipEndpointsConverge pins the gossip transport: announcing a
// join on one member propagates the grown view to the others, a leave
// shrinks it back, and both sides agree on list and epoch.
func TestMembershipEndpointsConverge(t *testing.T) {
	sa, urlA := liveServer(t, Options{})
	_, urlB := liveServer(t, Options{})

	// a and b start knowing only themselves. Announce b's join on a: a's
	// view grows and gossips to b, whose equal-epoch different list merges
	// to the same union.
	resp := postJSON(t, urlA+"/v1/join", fmt.Sprintf(`{"url":%q}`, urlB))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join -> %d", resp.StatusCode)
	}
	var snap struct {
		Members []string `json:"members"`
		Epoch   uint64   `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.Members) != 2 {
		t.Fatalf("join response members = %v", snap.Members)
	}
	waitUntil(t, func() bool {
		m, _, _ := membersOf(t, urlB)
		return len(m) == 2
	}, "the join to gossip to b")
	ma, ea, _ := membersOf(t, urlA)
	mb, eb, _ := membersOf(t, urlB)
	if strings.Join(ma, ",") != strings.Join(mb, ",") || ea != eb {
		t.Fatalf("views diverged: %v@%d vs %v@%d", ma, ea, mb, eb)
	}

	// Leave: announced on a, converges on b too.
	resp = postJSON(t, urlA+"/v1/leave", fmt.Sprintf(`{"url":%q}`, urlB))
	resp.Body.Close()
	waitUntil(t, func() bool {
		m, _, _ := membersOf(t, urlB)
		return len(m) == 1 && m[0] == urlA
	}, "the leave to gossip to b")
	if got := sa.membership.Members(); len(got) != 1 || got[0] != urlA {
		t.Fatalf("a's members after leave = %v", got)
	}

	// Malformed bodies are rejected.
	for _, body := range []string{``, `{}`, `{"bogus":1}`} {
		resp = postJSON(t, urlA+"/v1/join", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("join %q -> %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestEmptyGossipIsRejected: gossip whose member list is empty (or empty
// once normalized) is malformed — a fleet always has a member — so join and
// leave answer 400 and the receiver's view, epoch included, is untouched.
// Applied, one such message would wipe the view and gossip the wipe to
// every member.
func TestEmptyGossipIsRejected(t *testing.T) {
	s, url := liveServer(t, Options{})
	before, beforeEpoch := s.membership.Snapshot()
	for _, path := range []string{"/v1/join", "/v1/leave"} {
		for _, body := range []string{
			`{"members":[],"epoch":999}`,
			`{"epoch":999}`,
			`{"members":[" ","/"],"epoch":1000}`,
		} {
			resp := postJSON(t, url+path, body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s -> %d, want 400", path, body, resp.StatusCode)
			}
		}
	}
	after, afterEpoch := s.membership.Snapshot()
	if strings.Join(after, ",") != strings.Join(before, ",") || afterEpoch != beforeEpoch {
		t.Errorf("view after empty gossip = %v@%d, want %v@%d", after, afterEpoch, before, beforeEpoch)
	}
}

// TestHealthzCarriesIdentityAndMembership pins the probe payload: /healthz
// stays a 200 "ok" for liveness, but now also carries the instance id and
// the (members, epoch) snapshot that fleet probers and sweep coordinators
// parse.
func TestHealthzCarriesIdentityAndMembership(t *testing.T) {
	s, h := testServer(t, Options{Advertise: "http://self:1"})
	w := do(h, "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz -> %d", w.Code)
	}
	var body struct {
		Status  string   `json:"status"`
		ID      string   `json:"id"`
		Members []string `json:"members"`
		Epoch   *uint64  `json:"epoch"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.ID == "" || body.ID != s.ID() {
		t.Errorf("healthz status/id = %q/%q", body.Status, body.ID)
	}
	if len(body.Members) != 1 || body.Members[0] != "http://self:1" || body.Epoch == nil {
		t.Errorf("healthz membership = %v epoch %v", body.Members, body.Epoch)
	}

	// Without membership the fields stay absent — and two servers never
	// share an id.
	s2, h2 := testServer(t, Options{})
	w = do(h2, "GET", "/healthz", "")
	if strings.Contains(w.Body.String(), `"members"`) {
		t.Errorf("membership-less healthz leaked members: %s", w.Body)
	}
	if s2.ID() == s.ID() {
		t.Error("two instances minted the same identity token")
	}
}

// TestDrainLifecycle pins graceful drain: work endpoints refuse with a
// retryable 503 the moment the drain starts, the replica leaves the member
// list once idle, healthz flips to 503 "drained", and the read side —
// blobs, manifest, metrics — stays up.
func TestDrainLifecycle(t *testing.T) {
	s, url := liveServer(t, Options{})

	// Populate the cache so the manifest has something to serve post-drain.
	resp := postJSON(t, url+"/v1/compare", smallCompare)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare -> %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, url+"/v1/drain", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain -> %d", resp.StatusCode)
	}
	resp.Body.Close()

	// New work is refused with the retryable status the fan-out client
	// treats as "try the next replica".
	resp = postJSON(t, url+"/v1/compare", smallCompare)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("compare while draining -> %d (Retry-After %q), want 503 + Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	// Idle, so the drain completes: the replica leaves its own member list
	// and healthz reports drained with a non-200 code.
	waitUntil(t, func() bool {
		hr, err := http.Get(url + "/healthz")
		if err != nil {
			return false
		}
		defer hr.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		json.NewDecoder(hr.Body).Decode(&body)
		return hr.StatusCode == http.StatusServiceUnavailable && body.Status == "drained"
	}, "the drain to complete")
	if s.membership.Contains(url) {
		t.Error("drained replica still in its own member list")
	}

	// Idempotent: a second drain just reports the state.
	resp = postJSON(t, url+"/v1/drain", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("second drain -> %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The read side survives: manifest and metrics still answer, and the
	// drain is counted.
	mresp, err := http.Get(url + "/v1/manifest")
	if err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("manifest after drain: %v (%v)", mresp, err)
	}
	var manifest struct {
		Keys  []string `json:"keys"`
		Count int      `json:"count"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if manifest.Count == 0 {
		t.Error("manifest empty after a served compare")
	}
	metrics, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := new(strings.Builder)
	if _, err := io.Copy(mb, metrics.Body); err != nil {
		t.Fatal(err)
	}
	metrics.Body.Close()
	if !strings.Contains(mb.String(), "cdcs_fleet_drains_total 1") {
		t.Errorf("metrics missing drain count:\n%s", mb.String())
	}
}

// TestJoinFleetWarmFill pins the warm-join protocol end to end: the joiner
// adopts the seed's view, batch-fills its local store from the seed's
// manifest via /v1/blob, announces itself, and then serves the warmed cells
// with zero simulations.
func TestJoinFleetWarmFill(t *testing.T) {
	_, seedURL := liveServer(t, Options{})

	// Give the seed a corpus: one computed compare.
	resp := postJSON(t, seedURL+"/v1/compare", smallCompare)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed compare -> %d", resp.StatusCode)
	}
	seedBody := new(strings.Builder)
	if _, err := io.Copy(seedBody, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	joiner, joinerURL := liveServer(t, Options{Join: seedURL})
	st, err := joiner.JoinFleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys == 0 || st.Filled != st.Keys || st.Failed != 0 {
		t.Fatalf("warm fill stats = %+v, want every manifest key filled", st)
	}
	if st.Members != 2 {
		t.Fatalf("post-join fleet size = %d, want 2", st.Members)
	}

	// Both sides agree the joiner is a member.
	waitUntil(t, func() bool {
		m, _, _ := membersOf(t, seedURL)
		return len(m) == 2
	}, "the seed to admit the joiner")
	if !joiner.membership.Contains(joinerURL) || !joiner.membership.Contains(seedURL) {
		t.Fatalf("joiner's view = %v", joiner.membership.Members())
	}

	// The warmed cell is served from the joiner's local tiers: identical
	// bytes, zero simulations.
	resp = postJSON(t, joinerURL+"/v1/compare", smallCompare)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("joiner compare -> %d", resp.StatusCode)
	}
	joinerBody := new(strings.Builder)
	if _, err := io.Copy(joinerBody, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if joinerBody.String() != seedBody.String() {
		t.Error("joiner's warmed response differs from the seed's")
	}
	if sims := joiner.Stats().Simulations; sims != 0 {
		t.Errorf("joiner simulated %d times, want 0 (warm fill must cover the corpus)", sims)
	}

	// The joins metric moved on both sides.
	for _, url := range []string{seedURL, joinerURL} {
		mr, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		mb := new(strings.Builder)
		io.Copy(mb, mr.Body)
		mr.Body.Close()
		if !strings.Contains(mb.String(), "cdcs_fleet_members 2") {
			t.Errorf("%s metrics missing cdcs_fleet_members 2:\n%s", url, mb.String())
		}
		joins := false
		for _, line := range strings.Split(mb.String(), "\n") {
			if strings.HasPrefix(line, "cdcs_fleet_joins_total ") && !strings.HasSuffix(line, " 0") {
				joins = true
			}
		}
		if !joins {
			t.Errorf("%s metrics missing nonzero cdcs_fleet_joins_total", url)
		}
	}
}

// TestJoinFleetRequiresReachableSeed pins the abort contract: a join that
// cannot complete the handshake fails with the fleet unchanged.
func TestJoinFleetRequiresReachableSeed(t *testing.T) {
	// A seed address nothing listens on.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + dead.Addr().String()
	dead.Close()

	joiner, joinerURL := liveServer(t, Options{Join: deadURL})
	if _, err := joiner.JoinFleet(context.Background()); err == nil {
		t.Fatal("JoinFleet through a dead seed succeeded")
	}
	// A joiner starts outside its own member list and the failed join must
	// not have admitted it anywhere — not even in its own view.
	if joiner.membership.Contains(joinerURL) {
		t.Fatalf("failed join admitted the joiner: %v", joiner.membership.Members())
	}
}
