// Package fanout shards content-addressed work units across the replicas
// of a fleet (internal/fleet).
//
// Each unit (a "cell" — one JSON POST whose response is fully determined by
// its content address) is routed by the fleet: when the cell is dispatched
// it is ranked over the fleet's current members by rendezvous hashing of
// its key (fleet.Rank), so independent clients route a cell to the same
// replica and its result cache absorbs the repeats, and the ranking is
// reordered by fleet.Order — the least-loaded healthy replica among the
// top-K holders first (cache affinity preserved: the holders don't change,
// only the order among them), breaker-open replicas last. When a replica
// fails, only the cells it owned move — each retries down its own routing
// order onto surviving replicas — and every outcome feeds the fleet's
// breakers, so once a dead replica's breaker opens later cells stop dialing
// it. A membership change mid-fan-out re-routes only the cells not yet
// dispatched. Cells whose service latency exceeds Options.HotLatency are
// replicated in the background to a second holder so warm copies exist on
// more than one replica. Routing only ever changes *where* a cell is
// computed, never *what* it returns: responses are a pure function of the
// cell's content address.
package fanout

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"cdcs/internal/fleet"
)

// Cell is one unit of work: Body is POSTed to the chosen replica, and Key
// (the cell's content address) drives replica choice.
type Cell struct {
	Index int
	Key   string
	Body  []byte
}

// Result is one completed cell.
type Result struct {
	Index int
	// Replica is the base URL that served the cell.
	Replica string
	// Attempts is the number of requests issued for this cell (1 = no
	// retry).
	Attempts int
	// Latency is how long the serving request took.
	Latency time.Duration
	// Body is the replica's response body, verbatim.
	Body []byte
}

// ReplicaStats describes one replica's share of a fan-out.
type ReplicaStats struct {
	// Assigned counts cells whose rendezvous ranking put this replica
	// first; Served counts cells whose response this replica produced.
	// They differ when retries or load-aware routing moved work.
	Assigned int `json:"assigned"`
	Served   int `json:"served"`
	// Failed counts requests this replica failed (connection errors and
	// 5xx responses).
	Failed int `json:"failed"`
}

// Stats summarizes a fan-out.
type Stats struct {
	Replicas map[string]ReplicaStats `json:"replicas"`
	// Retried counts cells that were not served by their first-choice
	// replica (the head of their routing order).
	Retried int `json:"retried"`
	// Replicated counts hot cells successfully re-posted to a second
	// rendezvous holder (see Options.HotLatency).
	Replicated int `json:"replicated,omitempty"`
}

// Options tunes Do. The zero value is usable.
type Options struct {
	// Client is the HTTP client (default: a client with a 15-minute
	// timeout, the serving layer's default job timeout, so a replica that
	// accepts a connection and never answers cannot hang the fan-out).
	Client *http.Client
	// Path is the request path POSTed on each replica (default
	// "/v1/compare").
	Path string
	// Parallelism caps concurrent in-flight requests (default 4 per
	// replica).
	Parallelism int
	// OnProgress, if set, is called after each completed cell with (done,
	// total).
	OnProgress func(done, total int)
	// HotLatency marks a cell hot when its serving request took longer
	// than this. A hot cell is re-POSTed in the background to its
	// next-ranked healthy holder, which warms its cache (from its own
	// compute, or via its peer tier's /v1/blob pull when so configured) so
	// later requests for the cell have a second warm home. 0 disables
	// replication.
	HotLatency time.Duration
}

// errNoReplicas fails a fan-out over a fleet with no members.
var errNoReplicas = errors.New("fanout: no replicas")

// defaultClient bounds every fan-out request by the longest a /v1/compare
// runs on a default replica (its 15-minute job timeout).
var defaultClient = &http.Client{Timeout: 15 * time.Minute}

// Do fans cells out across the members of fl and returns their results
// ordered by cell (results[i] belongs to cells[i]). Each cell is ranked over
// fl.Replicas() when it is dispatched and tried on every replica in its
// routing order before the whole fan-out fails; a 4xx response fails
// immediately (the request itself is invalid — no other replica will accept
// it). On error the first failure is returned and in-flight work is
// canceled.
func Do(ctx context.Context, fl *fleet.Fleet, cells []Cell, opts Options) ([]Result, Stats, error) {
	stats := Stats{Replicas: map[string]ReplicaStats{}}
	reps := fl.Replicas()
	if len(reps) == 0 {
		return nil, stats, errNoReplicas
	}
	for _, r := range reps {
		stats.Replicas[r] = ReplicaStats{}
	}
	client := opts.Client
	if client == nil {
		client = defaultClient
	}
	path := opts.Path
	if path == "" {
		path = "/v1/compare"
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = 4 * len(reps)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex // guards stats, done, firstErr
		done     int
		firstErr error
		wg       sync.WaitGroup
	)
	results := make([]Result, len(cells))
	next := make(chan int)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	// Hot-cell replication rides behind the fan-out: bounded, best-effort
	// background POSTs whose only job is warming a second holder's cache.
	// Do waits for them so callers can observe Replicated deterministically.
	var repWG sync.WaitGroup
	repSem := make(chan struct{}, 2)
	replicate := func(cell Cell, target string) {
		repWG.Add(1)
		go func() {
			defer repWG.Done()
			select {
			case repSem <- struct{}{}:
				defer func() { <-repSem }()
			case <-ctx.Done():
				return
			}
			end := fl.Begin(target)
			_, _, err := post(ctx, client, target+path, cell.Body)
			end(err)
			if err == nil {
				mu.Lock()
				stats.Replicated++
				mu.Unlock()
			}
		}()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cell := cells[i]
				ranked := fleet.Rank(fl.Replicas(), cell.Key)
				if len(ranked) == 0 {
					fail(errNoReplicas)
					return
				}
				route := fl.Order(ranked)
				mu.Lock()
				rs := stats.Replicas[ranked[0]]
				rs.Assigned++
				stats.Replicas[ranked[0]] = rs
				mu.Unlock()

				res, failed, err := tryReplicas(ctx, client, fl, route, path, cell)
				mu.Lock()
				for _, r := range failed {
					rs := stats.Replicas[r]
					rs.Failed++
					stats.Replicas[r] = rs
				}
				if err == nil {
					rs := stats.Replicas[res.Replica]
					rs.Served++
					stats.Replicas[res.Replica] = rs
					if res.Replica != route[0] {
						stats.Retried++
					}
					results[i] = res
					done++
					// Invoked under mu so (done, total) reports are
					// monotonic — the callback must not block.
					if opts.OnProgress != nil {
						opts.OnProgress(done, len(cells))
					}
					mu.Unlock()
					if opts.HotLatency > 0 && res.Latency > opts.HotLatency {
						if target := fl.Alternate(ranked, res.Replica); target != "" {
							replicate(cell, target)
						}
					}
					continue
				}
				mu.Unlock()
				fail(err)
				return
			}
		}()
	}

feed:
	for i := range cells {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	repWG.Wait()

	if firstErr != nil {
		return nil, stats, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// tryReplicas walks a cell's routing order until a replica answers,
// reporting every outcome to the fleet. Breaker-open replicas are already
// at the back of the order, so they are dialed only once every healthier
// candidate has failed. Returns the replicas that failed along the way so
// the caller can account them.
func tryReplicas(ctx context.Context, client *http.Client, fl *fleet.Fleet, route []string, path string, cell Cell) (res Result, failed []string, err error) {
	var lastErr error
	for attempts, replica := range route {
		if err := ctx.Err(); err != nil {
			return Result{}, failed, err
		}
		end := fl.Begin(replica)
		start := time.Now()
		body, retriable, perr := post(ctx, client, replica+path, cell.Body)
		end(perr)
		if perr == nil {
			return Result{Index: cell.Index, Replica: replica, Attempts: attempts + 1, Latency: time.Since(start), Body: body}, failed, nil
		}
		if !retriable {
			return Result{}, failed, fmt.Errorf("fanout: cell %d on %s: %w", cell.Index, replica, perr)
		}
		failed = append(failed, replica)
		lastErr = perr
	}
	return Result{}, failed, fmt.Errorf("fanout: cell %d failed on all %d replicas: %w", cell.Index, len(route), lastErr)
}

// post issues one POST. retriable reports whether another replica might
// succeed where this one failed: true for transport errors and 5xx, false
// for 4xx (the request itself is bad).
func post(ctx context.Context, client *http.Client, url string, body []byte) (respBody []byte, retriable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, true, err
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return b, false, nil
	case resp.StatusCode >= 500:
		return nil, true, fmt.Errorf("%s: %s", resp.Status, trim(b))
	default:
		return nil, false, fmt.Errorf("%s: %s", resp.Status, trim(b))
	}
}

// trim bounds an error body for message embedding.
func trim(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
