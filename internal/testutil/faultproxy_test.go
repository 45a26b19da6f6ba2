package testutil

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (*http.Response, error) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	return client.Get(url)
}

func TestFaultProxyPassesThrough(t *testing.T) {
	p, err := NewFaultProxy(newBackend(t).URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	resp, err := get(t, p.URL())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok" {
		t.Fatalf("proxied response = %d %q", resp.StatusCode, body)
	}
	if p.Requests() != 1 {
		t.Errorf("Requests = %d, want 1", p.Requests())
	}
}

func TestFaultProxyKillAndRevive(t *testing.T) {
	p, err := NewFaultProxy(newBackend(t).URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	p.Kill()
	if _, err := get(t, p.URL()); err == nil {
		t.Fatal("killed proxy answered; want a transport error")
	}
	if p.DeadRequests() != 1 {
		t.Errorf("DeadRequests = %d, want 1", p.DeadRequests())
	}

	// The address survives death: revival serves again on the same URL.
	p.Revive()
	resp, err := get(t, p.URL())
	if err != nil {
		t.Fatalf("revived proxy: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("revived proxy status = %d", resp.StatusCode)
	}
}

func TestFaultProxyLatency(t *testing.T) {
	p, err := NewFaultProxy(newBackend(t).URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	p.SetLatency(60 * time.Millisecond)
	start := time.Now()
	resp, err := get(t, p.URL())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("request took %v, want ≥ 60ms of injected latency", elapsed)
	}
	p.SetLatency(0)
	start = time.Now()
	resp, err = get(t, p.URL())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("latency removal did not take: %v", elapsed)
	}
}

func TestFaultProxyFailNextBurst(t *testing.T) {
	p, err := NewFaultProxy(newBackend(t).URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	p.FailNext(2)
	for i := 0; i < 2; i++ {
		resp, err := get(t, p.URL())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("burst request %d = %d, want 502", i, resp.StatusCode)
		}
	}
	resp, err := get(t, p.URL())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("after burst = %d, want 200", resp.StatusCode)
	}
}

func TestFaultProxyHangRespectsClientDeadline(t *testing.T) {
	p, err := NewFaultProxy(newBackend(t).URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	p.SetHang(10 * time.Second)
	client := &http.Client{Timeout: 100 * time.Millisecond}
	start := time.Now()
	_, gerr := client.Get(p.URL())
	if gerr == nil {
		t.Fatal("hung request returned without error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("client deadline did not bound the hang: %v", elapsed)
	}
}

// TestFaultProxyCloseAfterHungPost: once a hung POST's client gives up, the
// stall ends with it, so Close returns promptly instead of waiting out the
// hang.
func TestFaultProxyCloseAfterHungPost(t *testing.T) {
	p, err := NewFaultProxy(newBackend(t).URL)
	if err != nil {
		t.Fatal(err)
	}
	p.SetHang(time.Minute)
	client := &http.Client{Timeout: 100 * time.Millisecond}
	if _, err := client.Post(p.URL(), "application/json", strings.NewReader(`{"k":1}`)); err == nil {
		t.Fatal("hung POST returned without error")
	}
	start := time.Now()
	p.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Close took %v after the client timed out, want < 1s", elapsed)
	}
}
