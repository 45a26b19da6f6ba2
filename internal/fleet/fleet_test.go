package fleet

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cdcs/internal/testutil"
)

// noProbe builds a fleet whose breakers are driven only by reported request
// outcomes — no background prober, no timing dependence.
func noProbe(replicas []string, opts Options) *Fleet {
	opts.ProbeInterval = -1
	return New(replicas, opts)
}

func failN(t *testing.T, f *Fleet, url string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f.Begin(url)(errors.New("boom"))
	}
}

func TestBreakerOpensOnConsecutiveFailures(t *testing.T) {
	f := noProbe([]string{"http://a:1"}, Options{BreakerThreshold: 3})
	defer f.Close()

	failN(t, f, "http://a:1", 2)
	if !f.Healthy("http://a:1") {
		t.Fatal("breaker opened below threshold")
	}
	// A success resets the streak: two more failures must not trip.
	f.Begin("http://a:1")(nil)
	failN(t, f, "http://a:1", 2)
	if !f.Healthy("http://a:1") {
		t.Fatal("failure streak survived a success")
	}
	failN(t, f, "http://a:1", 1)
	if f.Healthy("http://a:1") {
		t.Fatal("breaker still closed after 3 consecutive failures")
	}
	if got := f.Trips(); got != 1 {
		t.Errorf("Trips = %d, want 1", got)
	}
	snap := f.Snapshot()
	if len(snap) != 1 || snap[0].State != "open" || snap[0].Errors != 5 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestBreakerHalfOpenTrialClosesOrReopens(t *testing.T) {
	f := noProbe([]string{"http://a:1"}, Options{
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Millisecond,
	})
	defer f.Close()

	failN(t, f, "http://a:1", 1)
	if f.Healthy("http://a:1") {
		t.Fatal("breaker closed after trip")
	}
	// Cooldown elapses: half-open admits trial traffic.
	time.Sleep(40 * time.Millisecond)
	if !f.Healthy("http://a:1") {
		t.Fatal("cooldown did not admit trial traffic")
	}
	if st := f.Snapshot()[0].State; st != "half-open" {
		t.Fatalf("state after cooldown = %q, want half-open", st)
	}
	// Failed trial: back to open, no new trip counted (same outage).
	failN(t, f, "http://a:1", 1)
	if f.Healthy("http://a:1") {
		t.Fatal("failed trial left the breaker admitting traffic")
	}
	if got := f.Trips(); got != 1 {
		t.Errorf("Trips after failed trial = %d, want 1", got)
	}
	// Second trial succeeds: closed again.
	time.Sleep(40 * time.Millisecond)
	if !f.Healthy("http://a:1") {
		t.Fatal("second cooldown did not admit traffic")
	}
	f.Begin("http://a:1")(nil)
	if st := f.Snapshot()[0].State; st != "closed" {
		t.Errorf("state after successful trial = %q, want closed", st)
	}
}

// TestProberTripsAndRecovers runs the real probe loop against a replica
// that dies and comes back: membership must follow, with no request
// traffic at all.
func TestProberTripsAndRecovers(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(backend.Close)
	proxy, err := testutil.NewFaultProxy(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)

	f := New([]string{proxy.URL()}, Options{
		ProbeInterval:    10 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
	})
	f.Start()
	defer f.Close()

	wait := func(pred func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, f.Snapshot())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	wait(func() bool { return f.Snapshot()[0].State == "closed" && f.Healthy(proxy.URL()) },
		"initial probes to settle closed")

	proxy.Kill()
	wait(func() bool { return f.Trips() >= 1 && !f.Healthy(proxy.URL()) },
		"breaker to trip after death")

	proxy.Revive()
	wait(func() bool { return f.Snapshot()[0].State == "closed" },
		"probes to close the breaker after revival")

	// Probes are membership-only: no request counters moved.
	if snap := f.Snapshot()[0]; snap.Requests != 0 || snap.Errors != 0 {
		t.Errorf("probes leaked into request counters: %+v", snap)
	}
}

func TestOrderPrefersLeastLoadedAmongTopK(t *testing.T) {
	ranked := []string{"http://a:1", "http://b:2", "http://c:3"}
	f := noProbe(ranked, Options{TopK: 2})
	defer f.Close()

	// Idle fleet: pure rendezvous order — cache affinity preserved.
	if got := f.Order(ranked); got[0] != "http://a:1" || got[1] != "http://b:2" || got[2] != "http://c:3" {
		t.Fatalf("idle Order = %v, want rank order", got)
	}

	// Load the owner: the second holder goes first; the tail never joins
	// the competition.
	end1 := f.Begin("http://a:1")
	end2 := f.Begin("http://a:1")
	if got := f.Order(ranked); got[0] != "http://b:2" || got[1] != "http://a:1" || got[2] != "http://c:3" {
		t.Fatalf("loaded Order = %v, want b,a,c", got)
	}
	end1(nil)
	end2(nil)

	// Equal inflight: lower EWMA latency wins within the top K.
	slow := f.Begin("http://a:1")
	time.Sleep(30 * time.Millisecond)
	slow(nil)
	fast := f.Begin("http://b:2")
	fast(nil)
	if got := f.Order(ranked); got[0] != "http://b:2" {
		t.Fatalf("Order with slow owner = %v, want b first", got)
	}

	// TopK=1 restores pure rendezvous routing no matter the load.
	f1 := noProbe(ranked, Options{TopK: 1})
	defer f1.Close()
	e := f1.Begin("http://a:1")
	defer e(nil)
	if got := f1.Order(ranked); got[0] != "http://a:1" {
		t.Fatalf("TopK=1 Order = %v, want rank order", got)
	}
}

func TestOrderDemotesUnhealthy(t *testing.T) {
	ranked := []string{"http://a:1", "http://b:2", "http://c:3"}
	f := noProbe(ranked, Options{BreakerThreshold: 1, TopK: 2})
	defer f.Close()

	failN(t, f, "http://a:1", 1)
	got := f.Order(ranked)
	if got[len(got)-1] != "http://a:1" {
		t.Fatalf("Order = %v, want breaker-open a last", got)
	}
	if got[0] != "http://b:2" {
		t.Fatalf("Order = %v, want b promoted to first", got)
	}
}

func TestAlternate(t *testing.T) {
	ranked := []string{"http://a:1", "http://b:2", "http://c:3"}
	f := noProbe(ranked, Options{BreakerThreshold: 1, TopK: 2})
	defer f.Close()

	if got := f.Alternate(ranked, "http://a:1"); got != "http://b:2" {
		t.Errorf("Alternate(exclude a) = %q, want b", got)
	}
	// c is outside the top-K neighborhood: no alternate once b is down.
	failN(t, f, "http://b:2", 1)
	if got := f.Alternate(ranked, "http://a:1"); got != "" {
		t.Errorf("Alternate with b open = %q, want none", got)
	}
}

func TestNewNormalizesAndUnknownURLsHealthy(t *testing.T) {
	f := noProbe([]string{" http://a:1/ ", "", "http://a:1", "http://b:2"}, Options{})
	defer f.Close()
	reps := f.Replicas()
	if len(reps) != 2 || reps[0] != "http://a:1" || reps[1] != "http://b:2" {
		t.Fatalf("Replicas = %v", reps)
	}
	if !f.Healthy("http://elsewhere:9") {
		t.Error("unknown URL reported unhealthy")
	}
	f.Begin("http://elsewhere:9")(errors.New("x")) // must be a safe no-op
}

// TestNormalize pins the one URL spelling rule every replica-naming layer
// shares: trimmed space and trailing slashes, no empties, no duplicates,
// sorted.
func TestNormalize(t *testing.T) {
	for _, tc := range []struct {
		in   []string
		want string
	}{
		{[]string{" http://a/ ", "", "http://a", "http://b"}, "http://a,http://b"},
		{[]string{" http://a:1/ ", "", "http://a:1", "http://b:2"}, "http://a:1,http://b:2"},
		{[]string{"http://c:3//", "http://a:1", " http://c:3 "}, "http://a:1,http://c:3"},
		{[]string{" ", "/"}, ""},
		{nil, ""},
	} {
		if got := strings.Join(Normalize(tc.in), ","); got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if got := NormalizeURL(" http://a:1/ "); got != "http://a:1" {
		t.Errorf("NormalizeURL = %q", got)
	}
}
