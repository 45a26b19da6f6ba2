package resultstore

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeTier is a scriptable in-memory Tier for chain-composition tests.
type fakeTier struct {
	name string

	mu    sync.Mutex
	data  map[string][]byte
	gets  int
	peeks int
	puts  int
}

func newFakeTier(name string) *fakeTier {
	return &fakeTier{name: name, data: map[string][]byte{}}
}

func (f *fakeTier) Name() string { return f.name }

func (f *fakeTier) Get(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	v, ok := f.data[key]
	return v, ok
}

func (f *fakeTier) Peek(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peeks++
	v, ok := f.data[key]
	return v, ok
}

func (f *fakeTier) Put(key string, val []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.data[key] = val
}

func (f *fakeTier) Stats() TierStats { return TierStats{Name: f.name} }

// remoteFakeTier wraps fakeTier so only it carries the TierRemote marker.
type remoteFakeTier struct{ *fakeTier }

func (r remoteFakeTier) TierRemote() {}

func (f *fakeTier) counts() (gets, peeks, puts int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets, f.peeks, f.puts
}

func TestChainPromotesAcrossAllFasterTiers(t *testing.T) {
	a, b, c := newFakeTier("memory"), newFakeTier("disk"), newFakeTier("far")
	c.data["k"] = []byte("v")
	chain := Chain(a, b, c)

	v, ok := chain.Get("k")
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	// The hit at the slowest tier lands in BOTH faster tiers, not just the
	// head: that is what lets a disk tier absorb a peer fetch.
	if _, ok := a.data["k"]; !ok {
		t.Error("hit not promoted to tier 0")
	}
	if _, ok := b.data["k"]; !ok {
		t.Error("hit not promoted to tier 1")
	}
	if _, _, puts := c.counts(); puts != 0 {
		t.Error("promotion wrote back into the serving tier")
	}
}

func TestChainWriteThroughOnCompute(t *testing.T) {
	a, b := newFakeTier("memory"), newFakeTier("disk")
	chain := Chain(a, b)
	computes := 0
	v, hit, err := chain.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		computes++
		return []byte("computed"), nil
	})
	if err != nil || hit || string(v) != "computed" || computes != 1 {
		t.Fatalf("v=%q hit=%v err=%v computes=%d", v, hit, err, computes)
	}
	for _, f := range []*fakeTier{a, b} {
		if string(f.data["k"]) != "computed" {
			t.Errorf("tier %s missing write-through", f.name)
		}
	}
	// Second lookup is a pure tier-0 hit: no compute, no deeper probe.
	bGets, _, _ := b.counts()
	if _, hit, _ := chain.GetOrCompute(context.Background(), "k", nil); !hit {
		t.Error("second lookup missed")
	}
	if gets, _, _ := b.counts(); gets != bGets {
		t.Error("tier-0 hit still probed tier 1")
	}
}

// TestChainSingleflightAtHead pins that coalescing happens once for the
// whole chain: concurrent callers for one key produce one compute and the
// waiters report hits.
func TestChainSingleflightAtHead(t *testing.T) {
	chain := Chain(newFakeTier("memory"), newFakeTier("disk"))
	var computes atomic.Int64
	gate := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	hits := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, hit, err := chain.Compute(context.Background(), "k", func() ([]byte, error) {
				computes.Add(1)
				<-gate
				return []byte("v"), nil
			})
			if err != nil {
				t.Error(err)
			}
			hits[i] = hit
		}(i)
	}
	// Let callers pile onto the flight, then release the leader.
	for chain.Stats().Coalesced < callers-1 {
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("%d computes for %d concurrent callers", n, callers)
	}
	nHits := 0
	for _, h := range hits {
		if h {
			nHits++
		}
	}
	if nHits != callers-1 {
		t.Errorf("%d waiters reported hit, want %d", nHits, callers-1)
	}
	if st := chain.Stats(); st.Coalesced != callers-1 {
		t.Errorf("Coalesced = %d, want %d", st.Coalesced, callers-1)
	}
}

// TestChainWaiterHonorsContext: a caller waiting on another caller's flight
// gives up when its own context ends — it neither blocks on the leader nor
// computes.
func TestChainWaiterHonorsContext(t *testing.T) {
	chain := Chain(newFakeTier("memory"))
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = chain.Compute(context.Background(), "k", func() ([]byte, error) {
			close(leaderIn)
			<-release
			return []byte("v"), nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := chain.Compute(ctx, "k", func() ([]byte, error) {
		t.Error("waiter must not compute")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone
}

// TestChainComputeLeaderRechecksCache: a value that landed in any tier
// between the caller's counted miss and its Compute call is served by the
// leader's re-probe — no compute runs, the result reads as a hit, and the
// value is promoted into the faster tiers.
func TestChainComputeLeaderRechecksCache(t *testing.T) {
	mem, disk := newFakeTier("memory"), newFakeTier("disk")
	disk.data["k"] = []byte("already")
	chain := Chain(mem, disk)
	v, hit, err := chain.Compute(context.Background(), "k", func() ([]byte, error) {
		t.Error("compute must not run when the value already landed")
		return nil, nil
	})
	if err != nil || !hit || string(v) != "already" {
		t.Errorf("Compute = %q, hit=%v, err=%v", v, hit, err)
	}
	if string(mem.data["k"]) != "already" {
		t.Error("re-probe hit not promoted into the memory tier")
	}
}

// TestChainFlightReprobeUsesPeek pins the counting contract: the flight
// leader's re-probe must not double-count the caller's already-counted
// lookup.
func TestChainFlightReprobeUsesPeek(t *testing.T) {
	a := newFakeTier("memory")
	chain := Chain(a)
	_, _, err := chain.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
		return []byte("v"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	gets, peeks, _ := a.counts()
	if gets != 1 {
		t.Errorf("counted Gets = %d for one logical lookup, want 1", gets)
	}
	if peeks != 1 {
		t.Errorf("flight re-probe used %d Peeks, want 1", peeks)
	}
}

func TestChainGetLocalSkipsRemoteTiers(t *testing.T) {
	mem, disk := newFakeTier("memory"), newFakeTier("disk")
	peer := remoteFakeTier{newFakeTier("peer")}
	peer.data["k"] = []byte("remote-only")
	disk.data["d"] = []byte("on-disk")
	chain := Chain(mem, disk, peer)

	// A key only a peer holds is invisible to GetLocal — that is the
	// recursion guard for /v1/blob.
	if _, ok := chain.GetLocal("k"); ok {
		t.Error("GetLocal consulted a remote tier")
	}
	if gets, peeks, _ := peer.counts(); gets+peeks != 0 {
		t.Error("GetLocal probed the peer tier")
	}

	// Local content is served, uncounted and without promotion.
	v, ok := chain.GetLocal("d")
	if !ok || string(v) != "on-disk" {
		t.Fatalf("GetLocal(d) = %q, %v", v, ok)
	}
	if gets, _, _ := disk.counts(); gets != 0 {
		t.Error("GetLocal counted a Get on a peekable tier")
	}
	if _, ok := mem.data["d"]; ok {
		t.Error("GetLocal promoted into the memory tier")
	}
}

func TestChainPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Chain() with no tiers did not panic")
		}
	}()
	Chain()
}
