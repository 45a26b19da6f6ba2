// Package testutil holds test scaffolding shared across packages. Its
// centerpiece is FaultProxy, the fault-injection harness the fleet, fan-out
// and serving tests use to make a healthy in-process replica misbehave on
// command: added latency, error bursts, hangs, and hard death/revival — all
// toggleable mid-test, so chaos scenarios (a replica flapping in the middle
// of a sweep) are ordinary table stakes instead of sleep-and-hope scripts.
//
// The package is plain library code (not _test files) so any package's
// tests can import it; nothing in it is built into the shipped binaries.
package testutil

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// FaultProxy is an httptest-backed reverse proxy in front of a real
// backend. Its own URL is stable across Kill/Revive — exactly like a
// replica that crashes and restarts on the same address — which is what
// lets tests exercise death and rejoin against rendezvous rankings that
// hash the URL.
//
// Faults compose: a revived proxy with added latency is a slow-but-alive
// replica; FailNext turns it into an error burst. All knobs are safe for
// concurrent use and take effect on the next request.
type FaultProxy struct {
	srv   *httptest.Server
	proxy *httputil.ReverseProxy

	mu       sync.Mutex
	dead     bool
	latency  time.Duration
	hang     time.Duration
	failNext int

	requests     atomic.Int64 // all requests received, faulted or not
	deadRequests atomic.Int64 // requests received while dead
}

// NewFaultProxy starts a proxy in front of backendURL (e.g. an
// httptest.Server's URL). Close it with Close; tests usually defer that.
func NewFaultProxy(backendURL string) (*FaultProxy, error) {
	target, err := url.Parse(backendURL)
	if err != nil {
		return nil, err
	}
	p := &FaultProxy{proxy: httputil.NewSingleHostReverseProxy(target)}
	// A killed proxy hijacks and drops the connection mid-request, which
	// surfaces to the client as a transport error (EOF / connection reset)
	// — the same failure class as a truly dead process, without losing the
	// listening address needed for revival.
	p.proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		w.WriteHeader(http.StatusBadGateway)
	}
	p.srv = httptest.NewServer(http.HandlerFunc(p.handle))
	return p, nil
}

// URL returns the proxy's base URL — the address tests hand to clients in
// place of the backend's.
func (p *FaultProxy) URL() string { return p.srv.URL }

// Close shuts the proxy down for good (Revive cannot bring it back).
func (p *FaultProxy) Close() { p.srv.Close() }

// Requests returns how many requests the proxy has received, including
// ones that were faulted.
func (p *FaultProxy) Requests() int64 { return p.requests.Load() }

// DeadRequests returns how many requests arrived while the proxy was
// killed — each one cost the caller a dial plus a dropped connection, so
// retry-path tests can assert how many times callers paid that price.
func (p *FaultProxy) DeadRequests() int64 { return p.deadRequests.Load() }

// Kill makes the proxy drop every connection without a response, emulating
// a crashed replica. The listener stays up so the address survives.
func (p *FaultProxy) Kill() { p.mu.Lock(); p.dead = true; p.mu.Unlock() }

// Revive undoes Kill.
func (p *FaultProxy) Revive() { p.mu.Lock(); p.dead = false; p.mu.Unlock() }

// SetLatency adds d of delay before each proxied request (0 removes it) —
// the slow-but-alive replica.
func (p *FaultProxy) SetLatency(d time.Duration) {
	p.mu.Lock()
	p.latency = d
	p.mu.Unlock()
}

// SetHang makes each request stall d before being served — long enough
// past the client's deadline, it emulates a replica that accepts
// connections but never answers. 0 removes it.
func (p *FaultProxy) SetHang(d time.Duration) {
	p.mu.Lock()
	p.hang = d
	p.mu.Unlock()
}

// FailNext makes the next n requests answer 502 without reaching the
// backend — an error burst.
func (p *FaultProxy) FailNext(n int) {
	p.mu.Lock()
	p.failNext = n
	p.mu.Unlock()
}

// handle applies the faults configured at the moment the request arrives.
func (p *FaultProxy) handle(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	p.mu.Lock()
	dead := p.dead
	delay := p.latency + p.hang
	burst := p.failNext > 0
	if burst {
		p.failNext--
	}
	p.mu.Unlock()

	if dead {
		p.deadRequests.Add(1)
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("testutil: response writer does not support hijacking")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	// Reading the body to EOF lets net/http watch the connection, so a
	// client that gives up cancels r.Context() and cuts the stall short
	// (otherwise Close would wait out a whole hang). The proxy then forwards
	// the buffered copy.
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
	}
	if burst {
		http.Error(w, `{"error":"injected fault"}`, http.StatusBadGateway)
		return
	}
	p.proxy.ServeHTTP(w, r)
}
