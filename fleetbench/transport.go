package main

// The coordinator's HTTP transport. It times every cell from its first
// attempt to the end of the accepted response body and records the
// content address each replica echoed, keyed by the request body (the
// fan-out POSTs a cell's canonical request JSON, identical on every
// attempt). With a tracer it also records each attempt as a span and tells
// the replica which span and sweep the request belongs to.

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// cellRec is one cell's view from the coordinator.
type cellRec struct {
	first time.Time // start of the first attempt
	end   time.Time // end of the accepted response's body
	echo  string    // X-Request-Hash of the accepted response
}

type cellTransport struct {
	base *http.Transport
	tr   *tracer // nil when untraced

	mu     sync.Mutex
	cells  map[string]*cellRec // current sweep, by request body
	sweep  int64
	parent int64 // current sweep's span id
}

func newCellTransport(tr *tracer) *cellTransport {
	return &cellTransport{
		base: &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: 30 * time.Second},
		tr:   tr,
	}
}

// beginSweep starts a fresh per-cell record set for one sweep.
func (c *cellTransport) beginSweep(sweep, spanID int64) {
	c.mu.Lock()
	c.cells = map[string]*cellRec{}
	c.sweep, c.parent = sweep, spanID
	c.mu.Unlock()
}

// endSweep returns the finished sweep's records.
func (c *cellTransport) endSweep() map[string]*cellRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.cells
	c.cells = nil
	return out
}

func (c *cellTransport) closeIdle() { c.base.CloseIdleConnections() }

func (c *cellTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != "/v1/compare" || req.GetBody == nil {
		return c.base.RoundTrip(req)
	}
	rc, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	c.mu.Lock()
	rec := c.cells[string(body)]
	if rec == nil && c.cells != nil {
		rec = &cellRec{first: start}
		c.cells[string(body)] = rec
	}
	sweep, parent := c.sweep, c.parent
	c.mu.Unlock()

	var id int64
	if c.tr != nil {
		id = c.tr.newID()
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		req.Header.Set(sweepHeader, strconv.FormatInt(sweep, 10))
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		if c.tr != nil {
			c.tr.record(id, parent, sweep, "fanout.attempt", start)
		}
		return nil, err
	}
	ok := resp.StatusCode == http.StatusOK
	echo := resp.Header.Get("X-Request-Hash")
	resp.Body = &timedBody{ReadCloser: resp.Body, onClose: func(at time.Time) {
		if ok && rec != nil {
			c.mu.Lock()
			rec.end, rec.echo = at, echo
			c.mu.Unlock()
		}
		if c.tr != nil {
			c.tr.add(span{ID: id, Parent: parent, Sweep: sweep, Name: "fanout.attempt", Start: c.tr.ns(start), End: c.tr.ns(at)})
		}
	}}
	return resp, nil
}

// timedBody reports when the caller finished with a response body.
type timedBody struct {
	io.ReadCloser
	once    sync.Once
	onClose func(time.Time)
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.onClose(time.Now()) })
	return err
}
