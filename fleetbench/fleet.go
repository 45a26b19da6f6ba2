package main

// The in-process fleet: two cdcs-serve replicas (server.New) behind
// loopback listeners on ephemeral ports, each listing the other as its peer,
// each with a disk tier in its own directory. The benchmark drives it only
// through the replicas' HTTP API and Stats, exactly as a remote coordinator
// would.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"cdcs"
	"cdcs/internal/resultstore"
	"cdcs/internal/server"
)

// replicas is the fleet size every workload runs against.
const replicas = 2

type replica struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

type fleet struct {
	reps []*replica
}

// startFleet starts one replica per directory. cacheEntries bounds each
// replica's memory tier (0 keeps the server default). A non-nil tracer wraps
// every replica handler in a timing span (see tracer.handler).
func startFleet(dirs []string, cacheEntries int, tr *tracer) (*fleet, error) {
	lns := make([]net.Listener, len(dirs))
	urls := make([]string, len(dirs))
	for i := range dirs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	f := &fleet{}
	for i, dir := range dirs {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		srv, err := server.New(server.Options{CacheDir: dir, CacheEntries: cacheEntries, Peers: peers})
		if err != nil {
			closeListeners(lns[i:])
			f.close()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.handler(h)
		}
		r := &replica{srv: srv, hs: &http.Server{Handler: h}, url: urls[i], done: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(r.done)
			_ = r.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
		}(lns[i])
		f.reps = append(f.reps, r)
	}
	return f, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// urls lists the replicas' base URLs.
func (f *fleet) urls() []string {
	out := make([]string, len(f.reps))
	for i, r := range f.reps {
		out[i] = r.url
	}
	return out
}

// ready waits until every replica answers /healthz.
func (f *fleet) ready(client *http.Client) error {
	for _, r := range f.reps {
		resp, err := client.Get(r.url + "/healthz")
		if err != nil {
			return fmt.Errorf("healthz %s: %w", r.url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz %s: %s", r.url, resp.Status)
		}
	}
	return nil
}

// warmUp posts each replica a small compare of its own that no workload
// generates (the paper's case-study mix, all five schemes), so
// process-wide lazy state (benchmark profiles, first-use allocations) is
// built before any window starts. Distinct cells keep the work per replica
// fixed: each misses locally and at its peer, then simulates once.
func (f *fleet) warmUp(client *http.Client) error {
	for i, r := range f.reps {
		body, err := json.Marshal(cdcs.CompareRequest{Mix: cdcs.MixSpec{Kind: cdcs.MixCaseStudy}, Seed: int64(i + 1)})
		if err != nil {
			return err
		}
		resp, err := client.Post(r.url+"/v1/compare", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.url, err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.url, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up %s: %s", r.url, resp.Status)
		}
	}
	return nil
}

// stats snapshots every replica's counters.
func (f *fleet) stats() []server.Stats {
	out := make([]server.Stats, len(f.reps))
	for i, r := range f.reps {
		out[i] = r.srv.Stats()
	}
	return out
}

// close shuts every replica down and waits for its serve loop to return.
// Callers close a fleet only once their own requests have finished, so the
// listeners and connections close at once: a graceful Shutdown would wait
// up to five seconds on keep-alive connections a client dialed but never
// used, which would make set-up times jitter.
func (f *fleet) close() {
	for _, r := range f.reps {
		r.hs.Close()
		<-r.done
		r.srv.Close()
	}
	f.reps = nil
}

// replicaDirs creates fresh, empty per-replica cache directories under root.
func replicaDirs(root string) ([]string, error) {
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	dirs := make([]string, replicas)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("replica-%d", i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// storeDelta is the change in store counters between two fleet snapshots,
// summed over replicas, with tiers matched by name.
type storeDelta struct {
	tiers     map[string]resultstore.TierStats // hits/misses are deltas; entries/bytes are end values
	coalesced int64
}

func diffStores(before, after []server.Stats) storeDelta {
	d := storeDelta{tiers: map[string]resultstore.TierStats{}}
	for i := range after {
		for _, t := range after[i].Cache.Tiers {
			var b resultstore.TierStats
			if i < len(before) {
				b = before[i].Cache.Tier(t.Name)
			}
			acc := d.tiers[t.Name]
			acc.Name = t.Name
			acc.Hits += t.Hits - b.Hits
			acc.Misses += t.Misses - b.Misses
			acc.Entries += t.Entries
			acc.Bytes += t.Bytes
			d.tiers[t.Name] = acc
		}
		if i < len(before) {
			d.coalesced += after[i].Cache.Coalesced - before[i].Cache.Coalesced
		} else {
			d.coalesced += after[i].Cache.Coalesced
		}
	}
	return d
}

// hitRatio is the share of lookups reaching the named tier that it served:
// hits / (hits + misses) at that tier. A tier no lookup reached reads 0.
func (d storeDelta) hitRatio(tier string) float64 {
	t := d.tiers[tier]
	if n := t.Hits + t.Misses; n > 0 {
		return float64(t.Hits) / float64(n)
	}
	return 0
}

// bytesPerEntry is the named tier's resident bytes per stored entry.
func (d storeDelta) bytesPerEntry(tier string) float64 {
	t := d.tiers[tier]
	if t.Entries > 0 {
		return float64(t.Bytes) / float64(t.Entries)
	}
	return 0
}

func simulations(st []server.Stats) int64 {
	var n int64
	for _, s := range st {
		n += s.Simulations
	}
	return n
}
