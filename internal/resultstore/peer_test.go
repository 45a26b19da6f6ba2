package resultstore

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdcs/internal/fleet"
)

// blobServer is a minimal stand-in for a sibling replica's /v1/blob
// endpoint: it serves framed entries from a map.
func blobServer(t *testing.T, entries map[string][]byte) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		key := strings.TrimPrefix(r.URL.Path, "/v1/blob/")
		val, ok := entries[key]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(EncodeBlob(key, val))
	}))
	t.Cleanup(srv.Close)
	return srv, &requests
}

// peerTier builds a peer tier over a probe-less fleet of urls — the static
// peer set: fetch outcomes alone drive the breakers.
func peerTier(t *testing.T, client *http.Client, urls ...string) *PeerTier {
	t.Helper()
	fl := fleet.New(urls, fleet.Options{ProbeInterval: -1})
	t.Cleanup(fl.Close)
	return NewPeerTier(fl, client)
}

func TestPeerTierServesVerifiedEntries(t *testing.T) {
	val := []byte(`{"result": "from-peer"}`)
	srv, _ := blobServer(t, map[string][]byte{"k": val})
	p := peerTier(t, nil, srv.URL)

	got, ok := p.Get("k")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := p.Get("absent"); ok {
		t.Error("absent key served")
	}
	st := p.Stats()
	if st.Name != "peer" || st.Hits != 1 || st.Misses != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Entries/Bytes stay zero: the tier holds nothing locally.
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("peer tier reports local occupancy: %+v", st)
	}
}

// TestPeerTierRejectsDamagedFrame: a peer response that fails the entry
// frame's checksum must never be served — it counts as an error and a miss,
// exactly like local bit rot.
func TestPeerTierRejectsDamagedFrame(t *testing.T) {
	frame := EncodeBlob("k", []byte("payload"))
	frame[len(frame)-1] ^= 0x01
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(frame)
	}))
	t.Cleanup(srv.Close)

	p := peerTier(t, nil, srv.URL)
	if _, ok := p.Get("k"); ok {
		t.Fatal("damaged frame served")
	}
	st := p.Stats()
	if st.Errors == 0 {
		t.Error("damaged frame not counted in Errors")
	}
	if st.Misses != 1 {
		t.Errorf("Misses = %d, want 1", st.Misses)
	}
}

// TestPeerTierRejectsWrongKeyBlob: a stale-but-valid frame answering a
// different content address — a confused cache or misrouted proxy replaying
// an old response — must be rejected by the key binding, or it would poison
// the local tiers under the wrong address.
func TestPeerTierRejectsWrongKeyBlob(t *testing.T) {
	stale := EncodeBlob("other-key", []byte(`{"result":"stale"}`))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(stale) // valid frame, wrong address, for every request
	}))
	t.Cleanup(srv.Close)

	p := peerTier(t, nil, srv.URL)
	if _, ok := p.Get("k"); ok {
		t.Fatal("blob for a different content address served")
	}
	st := p.Stats()
	if st.Errors == 0 {
		t.Error("wrong-key blob not counted in Errors")
	}
	if st.Misses != 1 {
		t.Errorf("Misses = %d, want 1", st.Misses)
	}
	// The same bytes under their true address still verify.
	if val, err := DecodeBlob("other-key", stale); err != nil || string(val) != `{"result":"stale"}` {
		t.Fatalf("DecodeBlob under the true key = %q, %v", val, err)
	}
}

// TestPeerTierHangCountsOneErrorWithinDeadline: a peer that accepts the
// connection but never answers must cost exactly one timed-out request —
// bounded by the client deadline, counted once in Errors — and must not
// wedge the lookup.
func TestPeerTierHangCountsOneErrorWithinDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release); srv.Close() })

	client := &http.Client{Timeout: 150 * time.Millisecond}
	p := peerTier(t, client, srv.URL)
	start := time.Now()
	_, ok := p.Get("k")
	elapsed := time.Since(start)
	if ok {
		t.Fatal("hung peer served a value")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("lookup blocked %v; client deadline did not bound the hang", elapsed)
	}
	st := p.Stats()
	if st.Errors != 1 {
		t.Errorf("Errors = %d, want exactly 1 for the timed-out fetch", st.Errors)
	}
	if st.Misses != 1 {
		t.Errorf("Misses = %d, want 1", st.Misses)
	}
}

// TestPeerTierCoalescesConcurrentFetches: N concurrent lookups of one cold
// key must cost one peer round trip — the tier's per-key singleflight, not
// the chain's compute singleflight, is what bounds network fan-in.
func TestPeerTierCoalescesConcurrentFetches(t *testing.T) {
	val := []byte(`{"result":"shared"}`)
	gate := make(chan struct{})
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		<-gate // hold the leader so the others must pile up behind it
		w.Write(EncodeBlob("k", val))
	}))
	t.Cleanup(srv.Close)

	p := peerTier(t, nil, srv.URL)
	const callers = 8
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	oks := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], oks[i] = p.Get("k")
		}(i)
	}
	// Wait until the leader's request is on the server, give the rest a
	// beat to reach the singleflight, then release.
	for requests.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := requests.Load(); n != 1 {
		t.Errorf("%d peer requests for %d concurrent lookups, want 1", n, callers)
	}
	for i := 0; i < callers; i++ {
		if !oks[i] || !bytes.Equal(results[i], val) {
			t.Fatalf("caller %d: got %q, %v", i, results[i], oks[i])
		}
	}
	if st := p.Stats(); st.Hits != callers {
		t.Errorf("Hits = %d, want %d (each caller counts its own outcome)", st.Hits, callers)
	}
}

func TestPeerTierSurvivesDeadPeer(t *testing.T) {
	val := []byte("v")
	alive, _ := blobServer(t, map[string][]byte{"k": val})
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close() // connection refused from here on

	// Both orders: whichever way rendezvous ranks them, the lookup must
	// fall through the dead peer to the live one.
	p := peerTier(t, nil, dead.URL, alive.URL)
	got, ok := p.Get("k")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get with a dead peer in the ranking = %q, %v", got, ok)
	}
}

// TestPeerTierNormalizesPeers: the peer tier reads its peers from the
// fleet, so differently spelled copies of one URL are one peer — a cold
// miss asks it once, not once per spelling.
func TestPeerTierNormalizesPeers(t *testing.T) {
	val := []byte("v")
	srv, requests := blobServer(t, map[string][]byte{"k": val})
	p := peerTier(t, nil, " "+srv.URL+" ", srv.URL+"/", srv.URL+"//", "", srv.URL)
	if _, ok := p.Get("cold"); ok {
		t.Fatal("miss reported as hit")
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("cold miss asked the peer %d times, want 1", n)
	}
	if st := p.Stats(); st.Errors != 0 {
		t.Errorf("a peer spelling failed to fetch: %+v", st)
	}
	if got, ok := p.Get("k"); !ok || !bytes.Equal(got, val) {
		t.Errorf("Get through normalized peer = %q, %v", got, ok)
	}
}

func TestPeerTierAttemptsBounded(t *testing.T) {
	// Three peers, none holding the key: only DefaultPeerAttempts of them
	// may be asked, so a fleet-wide cold miss is not a broadcast.
	var asked atomic.Int64
	mk := func() *httptest.Server {
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			asked.Add(1)
			http.NotFound(w, r)
		}))
		t.Cleanup(s.Close)
		return s
	}
	peers := []string{mk().URL, mk().URL, mk().URL}
	p := peerTier(t, nil, peers...)
	if _, ok := p.Get("cold"); ok {
		t.Fatal("miss reported as hit")
	}
	if n := asked.Load(); n != DefaultPeerAttempts {
		t.Errorf("%d peers asked, want %d", n, DefaultPeerAttempts)
	}
}

// TestPeerTierInChain is the composition the fleet runs: a cold chain with
// a peer tier serves from the peer and promotes the entry into its local
// tiers, so the next lookup never leaves the process.
func TestPeerTierInChain(t *testing.T) {
	val := []byte(`{"result": 42}`)
	srv, requests := blobServer(t, map[string][]byte{"k": val})
	chain := Chain(MemoryTier(16), peerTier(t, nil, srv.URL))

	got, ok := chain.Get("k")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("cold Get through chain = %q, %v", got, ok)
	}
	after := requests.Load()
	if after == 0 {
		t.Fatal("peer never consulted")
	}
	if got, ok := chain.Get("k"); !ok || !bytes.Equal(got, val) {
		t.Fatal("promoted entry not served locally")
	}
	if requests.Load() != after {
		t.Error("second Get went back to the peer; promotion failed")
	}
	st := chain.Stats()
	if st.Tier("peer").Hits != 1 || st.Tier("memory").Hits != 1 {
		t.Errorf("tier hits: peer=%d memory=%d, want 1/1", st.Tier("peer").Hits, st.Tier("memory").Hits)
	}
}

func TestPeerTierPutIsNoOp(t *testing.T) {
	srv, requests := blobServer(t, nil)
	p := peerTier(t, nil, srv.URL)
	p.Put("k", []byte("v"))
	if requests.Load() != 0 {
		t.Error("Put issued a request; the peer tier must be read-only")
	}
}
