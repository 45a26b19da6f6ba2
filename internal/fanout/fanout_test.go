package fanout

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cdcs/internal/fleet"
	"cdcs/internal/testutil"
)

// echoReplica serves /v1/compare by echoing "<name>:<body>" so tests can
// see which replica produced which result.
func echoReplica(t *testing.T, name string, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s:%s", name, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// static builds a probe-less fleet over urls — the static replica set:
// request outcomes alone drive its breakers.
func static(t *testing.T, opts fleet.Options, urls ...string) *fleet.Fleet {
	t.Helper()
	opts.ProbeInterval = -1
	fl := fleet.New(urls, opts)
	t.Cleanup(fl.Close)
	return fl
}

// makeCells builds n cells with hex-ish keys.
func makeCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Index: i, Key: fmt.Sprintf("%064x", i*2654435761), Body: []byte(fmt.Sprintf("c%d", i))}
	}
	return cells
}

// The two Rank tests pin the routing invariants the fan-out relies on:
// every client ranks a cell identically, and a departure moves only the
// departed replica's cells.
func TestRankDeterministicAndOrderInvariant(t *testing.T) {
	reps := []string{"http://a", "http://b", "http://c"}
	shuffled := []string{"http://c", "http://a", "http://b"}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("%064x", i)
		r1 := fleet.Rank(reps, key)
		r2 := fleet.Rank(shuffled, key)
		if strings.Join(r1, ",") != strings.Join(r2, ",") {
			t.Fatalf("key %s: ranking depends on listing order: %v vs %v", key, r1, r2)
		}
		if len(r1) != 3 {
			t.Fatalf("ranking lost replicas: %v", r1)
		}
	}
}

func TestRankRemovalOnlyMovesOwnedKeys(t *testing.T) {
	reps := []string{"http://a", "http://b", "http://c"}
	survivors := []string{"http://a", "http://c"}
	moved, kept := 0, 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("%064x", i*31)
		before := fleet.Rank(reps, key)[0]
		after := fleet.Rank(survivors, key)[0]
		if before == "http://b" {
			moved++
			continue // owned by the removed replica; may land anywhere
		}
		if before != after {
			t.Fatalf("key %s moved from %s to %s although its owner survived", key, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestDoSpreadsCellsAcrossReplicas(t *testing.T) {
	a := echoReplica(t, "a", nil)
	b := echoReplica(t, "b", nil)
	cells := makeCells(64)
	results, stats, err := Do(context.Background(), static(t, fleet.Options{}, a.URL, b.URL), cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 64 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has index %d (order must be deterministic)", i, r.Index)
		}
		wantSuffix := fmt.Sprintf(":c%d", i)
		if !strings.HasSuffix(string(r.Body), wantSuffix) {
			t.Errorf("result %d body %q does not end with %q", i, r.Body, wantSuffix)
		}
	}
	sa, sb := stats.Replicas[a.URL], stats.Replicas[b.URL]
	if sa.Served+sb.Served != 64 {
		t.Errorf("served %d+%d != 64", sa.Served, sb.Served)
	}
	// Rendezvous hashing balances within loose bounds.
	if sa.Served < 16 || sb.Served < 16 {
		t.Errorf("unbalanced assignment: a=%d b=%d", sa.Served, sb.Served)
	}
	if stats.Retried != 0 {
		t.Errorf("retried = %d with all replicas up", stats.Retried)
	}
}

// TestNormalizeReplicas: the fan-out sees replicas under the fleet's one
// spelling — padded, slash-suffixed, blank and duplicate entries collapse
// to one replica each, and the stats are keyed by the normalized URL.
func TestNormalizeReplicas(t *testing.T) {
	a := echoReplica(t, "a", nil)
	b := echoReplica(t, "b", nil)
	fl := static(t, fleet.Options{}, " "+a.URL+"/ ", "", a.URL, b.URL)
	results, stats, err := Do(context.Background(), fl, makeCells(32), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 32 {
		t.Fatalf("%d results", len(results))
	}
	if len(stats.Replicas) != 2 {
		t.Fatalf("stats keyed by %d replicas, want 2: %v", len(stats.Replicas), stats.Replicas)
	}
	if sa, sb := stats.Replicas[a.URL], stats.Replicas[b.URL]; sa.Served+sb.Served != 32 {
		t.Errorf("served %d+%d != 32 under normalized names", sa.Served, sb.Served)
	}
}

func TestDoRetriesOnSurvivingReplica(t *testing.T) {
	var aHits atomic.Int64
	a := echoReplica(t, "a", &aHits)
	b := echoReplica(t, "b", nil)
	dead := b.URL
	b.Close() // connection refused: the classic dead replica

	cells := makeCells(32)
	results, stats, err := Do(context.Background(), static(t, fleet.Options{}, a.URL, dead), cells, Options{})
	if err != nil {
		t.Fatalf("fan-out with one dead replica failed: %v", err)
	}
	for i, r := range results {
		if r.Replica != a.URL {
			t.Errorf("cell %d served by %s, want the survivor", i, r.Replica)
		}
	}
	if got := stats.Replicas[a.URL].Served; got != 32 {
		t.Errorf("survivor served %d, want 32", got)
	}
	if stats.Replicas[dead].Failed == 0 {
		t.Error("dead replica's failures not counted")
	}
	if stats.Retried == 0 {
		t.Error("no cells recorded as retried although some were owned by the dead replica")
	}
	if int(aHits.Load()) != 32 {
		t.Errorf("survivor received %d requests, want 32", aHits.Load())
	}
}

func TestDoAllReplicasDownFails(t *testing.T) {
	a := echoReplica(t, "a", nil)
	b := echoReplica(t, "b", nil)
	ua, ub := a.URL, b.URL
	a.Close()
	b.Close()
	_, _, err := Do(context.Background(), static(t, fleet.Options{}, ua, ub), makeCells(4), Options{})
	if err == nil || !strings.Contains(err.Error(), "all 2 replicas") {
		t.Fatalf("err = %v, want all-replicas failure", err)
	}
}

func TestDo4xxIsNotRetried(t *testing.T) {
	var aHits, bHits atomic.Int64
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aHits.Add(1)
		http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
	}))
	defer reject.Close()
	ok := echoReplica(t, "b", &bHits)

	// One cell, so the rejecting replica is deterministically ranked for it
	// in at least one of the two orders; try keys until it owns one.
	var cell Cell
	for i := 0; ; i++ {
		cell = Cell{Index: 0, Key: fmt.Sprintf("%064x", i), Body: []byte("x")}
		if fleet.Rank([]string{reject.URL, ok.URL}, cell.Key)[0] == reject.URL {
			break
		}
	}
	_, _, err := Do(context.Background(), static(t, fleet.Options{}, reject.URL, ok.URL), []Cell{cell}, Options{})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("err = %v, want 400 failure", err)
	}
	if bHits.Load() != 0 {
		t.Error("4xx was retried on another replica")
	}
}

func TestDo5xxFailsOverThenErrorsWhenExhausted(t *testing.T) {
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
	}))
	defer flaky.Close()
	ok := echoReplica(t, "b", nil)

	results, stats, err := Do(context.Background(), static(t, fleet.Options{}, flaky.URL, ok.URL), makeCells(8), Options{})
	if err != nil {
		t.Fatalf("5xx should fail over: %v", err)
	}
	for _, r := range results {
		if r.Replica != ok.URL {
			t.Errorf("cell %d served by the 503 replica", r.Index)
		}
	}
	if stats.Replicas[flaky.URL].Served != 0 {
		t.Error("503 replica credited with served cells")
	}

	// Alone, the 5xx replica exhausts the ranking.
	_, _, err = Do(context.Background(), static(t, fleet.Options{}, flaky.URL), makeCells(2), Options{})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("err = %v, want 503 failure", err)
	}
}

func TestDoProgressAndCancellation(t *testing.T) {
	var calls atomic.Int64
	a := echoReplica(t, "a", nil)
	fl := static(t, fleet.Options{}, a.URL)
	_, _, err := Do(context.Background(), fl, makeCells(10), Options{
		OnProgress: func(done, total int) {
			calls.Add(1)
			if total != 10 {
				t.Errorf("total = %d", total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 10 {
		t.Errorf("progress called %d times, want 10", calls.Load())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = Do(ctx, fl, makeCells(10), Options{})
	if err == nil {
		t.Fatal("canceled fan-out returned nil error")
	}
}

// TestDoCachesDeathVerdictPerFanOut guards against O(N) dial timeouts, one
// per cell ranked to a dead replica: each failure feeds the fleet's
// breaker, and once it opens the dead replica drops to the back of every
// later cell's route, so an N-cell sweep against a dead replica costs
// exactly the breaker threshold in dials.
func TestDoCachesDeathVerdictPerFanOut(t *testing.T) {
	for _, tc := range []struct {
		threshold int // 0 = the fleet default
		want      int64
	}{
		{threshold: 1, want: 1},
		{threshold: 0, want: 3},
	} {
		alive := echoReplica(t, "a", nil)
		backend := echoReplica(t, "b", nil)
		proxy, err := testutil.NewFaultProxy(backend.URL)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(proxy.Close)
		proxy.Kill()

		// Parallelism 1 serializes the cells, so after the breaker opens no
		// concurrent cell can be mid-flight toward the dead replica.
		cells := makeCells(24)
		fl := static(t, fleet.Options{BreakerThreshold: tc.threshold}, alive.URL, proxy.URL())
		results, stats, err := Do(context.Background(), fl, cells, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("threshold %d: fan-out with one dead replica failed: %v", tc.threshold, err)
		}
		if len(results) != len(cells) {
			t.Fatalf("threshold %d: %d results, want %d", tc.threshold, len(results), len(cells))
		}
		if got := proxy.DeadRequests(); got != tc.want {
			t.Errorf("threshold %d: dead replica touched %d times for %d cells, want exactly %d",
				tc.threshold, got, len(cells), tc.want)
		}
		if got := stats.Replicas[alive.URL].Served; got != len(cells) {
			t.Errorf("threshold %d: survivor served %d, want %d", tc.threshold, got, len(cells))
		}
	}
}

// TestDoBoundsHungReplica: a replica that accepts connections but never
// answers costs one client deadline, not a hung fan-out — the timed-out
// request fails over to the survivor and opens the breaker, so later cells
// skip the hung replica.
func TestDoBoundsHungReplica(t *testing.T) {
	if defaultClient.Timeout != 15*time.Minute {
		t.Fatalf("default client timeout = %v, want the 15m job timeout", defaultClient.Timeout)
	}
	alive := echoReplica(t, "a", nil)
	backend := echoReplica(t, "b", nil)
	proxy, err := testutil.NewFaultProxy(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	// Ten client deadlines long. The stall is not cut short by the client
	// hanging up (the proxy has not read the POST body, so it cannot see the
	// disconnect), and the proxy's Close waits it out — keep it short.
	proxy.SetHang(time.Second)

	cells := makeCells(12)
	fl := static(t, fleet.Options{BreakerThreshold: 1}, alive.URL, proxy.URL())
	results, stats, err := Do(context.Background(), fl, cells, Options{
		Client:      &http.Client{Timeout: 100 * time.Millisecond},
		Parallelism: 1,
	})
	if err != nil {
		t.Fatalf("fan-out with a hung replica failed: %v", err)
	}
	for i, r := range results {
		if r.Replica != alive.URL {
			t.Errorf("cell %d served by %s, want the survivor", i, r.Replica)
		}
	}
	if got := stats.Replicas[proxy.URL()].Failed; got != 1 {
		t.Errorf("hung replica Failed = %d, want 1", got)
	}
}

// TestDoFleetRevivalClearsDeadVerdict: a dead verdict must not outlive the
// replica's recovery — once the breaker's cooldown admits trial traffic, a
// revived replica regains traffic within the same fan-out.
func TestDoFleetRevivalClearsDeadVerdict(t *testing.T) {
	backend := echoReplica(t, "b", nil)
	proxy, err := testutil.NewFaultProxy(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	alive := echoReplica(t, "a", nil)

	// No prober; breaker threshold 1 so the single failure opens it, and a
	// short cooldown lets Healthy turn true again mid-fan-out.
	fl := static(t, fleet.Options{
		BreakerThreshold: 1,
		BreakerCooldown:  50 * time.Millisecond,
	}, alive.URL, proxy.URL())

	proxy.Kill()
	cells := makeCells(12)
	var revived atomic.Bool
	_, _, err = Do(context.Background(), fl, cells, Options{
		Parallelism: 1,
		OnProgress: func(done, total int) {
			if done == 2 && !revived.Load() {
				proxy.Revive()
				revived.Store(true)
			}
		},
	})
	if err != nil {
		t.Fatalf("fan-out across a revival failed: %v", err)
	}
	// After revival + cooldown the proxy must see real traffic again:
	// served requests beyond the initial death touch.
	deadline := time.Now().Add(2 * time.Second)
	for proxy.Requests() <= proxy.DeadRequests() {
		if time.Now().After(deadline) {
			t.Fatalf("revived replica never served traffic: %d requests, %d while dead",
				proxy.Requests(), proxy.DeadRequests())
		}
		// A second fan-out after the cooldown must reach it.
		time.Sleep(60 * time.Millisecond)
		if _, _, err := Do(context.Background(), fl, makeCells(12), Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDoFleetSteersLoadOffSlowReplica: a slow-but-alive
// replica sheds load to the other top-K holder — fewer served cells, no
// failures, and every response still correct.
func TestDoFleetSteersLoadOffSlowReplica(t *testing.T) {
	fast := echoReplica(t, "fast", nil)
	slowBackend := echoReplica(t, "slow", nil)
	proxy, err := testutil.NewFaultProxy(slowBackend.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	proxy.SetLatency(40 * time.Millisecond)

	fl := static(t, fleet.Options{TopK: 2}, fast.URL, proxy.URL())
	cells := makeCells(48)
	results, stats, err := Do(context.Background(), fl, cells, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !strings.HasSuffix(string(r.Body), fmt.Sprintf(":c%d", i)) {
			t.Errorf("cell %d body %q corrupted by steering", i, r.Body)
		}
	}
	sSlow, sFast := stats.Replicas[proxy.URL()], stats.Replicas[fast.URL]
	if sSlow.Failed != 0 || sFast.Failed != 0 {
		t.Errorf("steering produced failures: slow=%d fast=%d", sSlow.Failed, sFast.Failed)
	}
	if sSlow.Served+sFast.Served != len(cells) {
		t.Fatalf("served %d+%d != %d", sSlow.Served, sFast.Served, len(cells))
	}
	// The whole point: the slow replica's share drops below the fast one's
	// (rendezvous alone would split roughly evenly).
	if sSlow.Served >= sFast.Served {
		t.Errorf("slow replica served %d ≥ fast's %d; load was not steered", sSlow.Served, sFast.Served)
	}
}

// TestDoHotCellReplication: with HotLatency below every service time, each
// cell is hot and gets re-POSTed to its alternate holder, so both replicas
// end up warm for every key.
func TestDoHotCellReplication(t *testing.T) {
	var aHits, bHits atomic.Int64
	a := echoReplica(t, "a", &aHits)
	b := echoReplica(t, "b", &bHits)
	fl := static(t, fleet.Options{TopK: 2}, a.URL, b.URL)
	cells := makeCells(16)
	_, stats, err := Do(context.Background(), fl, cells, Options{HotLatency: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replicated != len(cells) {
		t.Errorf("Replicated = %d, want %d (every cell hot, alternate always available)",
			stats.Replicated, len(cells))
	}
	// Serving plus replication touches both replicas once per cell.
	if total := aHits.Load() + bHits.Load(); total != int64(2*len(cells)) {
		t.Errorf("total requests = %d, want %d", total, 2*len(cells))
	}

	// With HotLatency 0 nothing replicates.
	_, stats, err = Do(context.Background(), fl, cells, Options{HotLatency: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replicated != 0 {
		t.Errorf("Replicated = %d without HotLatency, want 0", stats.Replicated)
	}
}
