package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// testServer assembles a server around a blocking executor: every
// simulated run parks on release, so worker slots and the engine queue
// fill deterministically.
func testServer(t *testing.T, opts serverOpts) (*server, *httptest.Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	opts.sweepDir = t.TempDir()
	opts.run = func(service.Spec) ([]byte, error) {
		<-release
		return []byte(`{"ok":true}`), nil
	}
	opts.logf = func(*http.Request, int, int64, time.Duration) {}
	s := newServer(opts)
	ts := httptest.NewServer(s.handler)
	t.Cleanup(ts.Close)
	return s, ts, release
}

// runSpec builds a distinct /run body per n, so requests neither hit
// the cache nor coalesce with each other.
func runSpec(n int) string {
	return fmt.Sprintf(`{"bench":"SYRK","sched":"CIAO-C","options":{"instr_per_warp":%d}}`, 1000+n)
}

func postRun(ts *httptest.Server, n int) (*http.Response, error) {
	return http.Post(ts.URL+"/run", "application/json", strings.NewReader(runSpec(n)))
}

// TestServerShedsUnderLoad drives the server past its accept-queue
// bound and checks the overload contract: excess work is refused fast
// with 429 + Retry-After while the health and coordination endpoints
// keep answering, and once the backlog drains the queued requests
// complete and new work is admitted again.
func TestServerShedsUnderLoad(t *testing.T) {
	s, ts, release := testServer(t, serverOpts{workers: 1, maxQueue: 2})

	// Fill the worker slot and the accept queue: request 0 executes
	// (blocked in the run func), request 1 queues for the engine slot.
	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			resp, err := postRun(ts, n)
			if err != nil {
				t.Errorf("request %d: %v", n, err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	waitFor(t, "engine queue to fill", func() bool { return s.engine.QueueDepth() >= 1 })

	// The third request must shed immediately, not join the pile.
	start := time.Now()
	resp, err := postRun(ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("shed response took %s, want fail-fast", el)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request code = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}

	// Saturation must not take down the cheap endpoints.
	for _, probe := range []struct {
		method, path, body string
	}{
		{"GET", "/healthz", ""},
		{"POST", "/coord/heartbeat", `{}`},
	} {
		start := time.Now()
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader(probe.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s under load: %v", probe.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("%s under load took %s", probe.path, el)
		}
		if resp.StatusCode >= 500 {
			t.Fatalf("%s under load = %d", probe.path, resp.StatusCode)
		}
	}

	// Drain: the blocked and queued requests complete normally.
	close(release)
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("queued request code = %d, want 200", c)
		}
	}

	// And the server admits new work again.
	resp, err = postRun(ts, 3)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request code = %d, want 200", resp.StatusCode)
	}

	// The decisions all landed in the RED layer.
	snap := s.red.Series("/run").Snapshot()
	if snap.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", snap.Shed)
	}
	if snap.Requests < 4 {
		t.Fatalf("requests = %d, want >= 4", snap.Requests)
	}
}

func TestServerRateLimitsPerClient(t *testing.T) {
	_, ts, release := testServer(t, serverOpts{workers: 4, clientRate: 0.001, clientBurst: 1})
	close(release) // executor never blocks in this test

	do := func(n int, client string) int {
		req, _ := http.NewRequest("POST", ts.URL+"/run", strings.NewReader(runSpec(n)))
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := do(0, "a"); c != http.StatusOK {
		t.Fatalf("first request = %d, want 200", c)
	}
	if c := do(1, "a"); c != http.StatusTooManyRequests {
		t.Fatalf("burst-exceeded request = %d, want 429", c)
	}
	if c := do(2, "b"); c != http.StatusOK {
		t.Fatalf("other client = %d, want 200", c)
	}
}

// TestServerMetricsFormats checks the /metrics content negotiation:
// JSON by default (with the per-route RED block), Prometheus text
// exposition on request, carrying every subsystem's families.
func TestServerMetricsFormats(t *testing.T) {
	_, ts, release := testServer(t, serverOpts{workers: 2})
	close(release)

	if resp, err := postRun(ts, 0); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var js struct {
		Cache json.RawMessage            `json:"cache"`
		HTTP  map[string]json.RawMessage `json:"http"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default Content-Type = %q", ct)
	}
	if js.Cache == nil || js.HTTP["/run"] == nil {
		t.Fatalf("JSON payload missing cache or http//run block: %+v", js)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("prom Content-Type = %q", ct)
	}
	for _, want := range []string{
		`ciao_http_requests_total{route="/run"} 1`,
		`ciao_http_request_seconds_bucket{route="/run",le="+Inf"} 1`,
		"ciao_cache_hits_total",
		"ciao_simulations_total",
		"ciao_engine_queue_depth",
		"ciao_sweeps_started_total",
		"coord_leases_granted",
		"coord_active",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	// Accept-based negotiation reaches the same encoder.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "# TYPE ciao_http_request_seconds histogram") {
		t.Error("Accept: text/plain did not produce exposition format")
	}
}

// TestServerShutdownReleasesHeldLeasePolls: a worker's lease poll is
// held while the hub has nothing to lease, and a graceful drain must
// release it instead of waiting the hold out.
func TestServerShutdownReleasesHeldLeasePolls(t *testing.T) {
	s, _, release := testServer(t, serverOpts{workers: 1})
	close(release)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := s.httpServer(ln.Addr().String())
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	polled := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/coord/lease", "application/json", strings.NewReader(`{"worker":"w1","wait_ms":20000}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		polled <- err
	}()
	waitFor(t, "the held poll to register its worker", func() bool {
		resp, err := http.Get(base + "/coord/admin/leases")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var out struct {
			Workers []json.RawMessage `json:"workers"`
		}
		return json.NewDecoder(resp.Body).Decode(&out) == nil && len(out.Workers) == 1
	})

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Shutdown took %s with a held lease poll, want < 1s", el)
	}
	if err := <-polled; err != nil {
		t.Fatalf("held poll: %v, want an answer", err)
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
