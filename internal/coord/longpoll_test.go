package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// pollLease sends one lease poll and returns the answer and when it
// arrived.
func pollLease(ctx context.Context, url string, req leaseRequest) (leaseResponse, time.Time, error) {
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/coord/lease", bytes.NewReader(body))
	if err != nil {
		return leaseResponse{}, time.Time{}, err
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return leaseResponse{}, time.Time{}, err
	}
	defer resp.Body.Close()
	var out leaseResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, time.Now(), err
}

type polled struct {
	resp leaseResponse
	at   time.Time
	err  error
}

// heldPoll starts a lease poll in the background and returns once the
// hub has registered the worker, i.e. the poll is being held.
func heldPoll(t *testing.T, hub *Hub, url string, req leaseRequest) (<-chan polled, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan polled, 1)
	go func() {
		resp, at, err := pollLease(ctx, url, req)
		out <- polled{resp, at, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, w := range hub.reg.snapshot(time.Now()) {
			if w.Name == req.Worker {
				return out, cancel
			}
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("worker %s never polled", req.Worker)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHeldPollGetsShardOnDistribute: a poll held on an idle hub is
// granted the first shard of a sweep the moment it is distributed.
func TestHeldPollGetsShardOnDistribute(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, _ := newStore(t, spec, cells)
	hub := NewHub(Config{ShardSize: 2})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	out, cancel := heldPoll(t, hub, srv.URL, leaseRequest{Worker: "w1", WaitMS: 5000})
	defer cancel()
	time.Sleep(20 * time.Millisecond) // well into the hold
	start := time.Now()
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()
	p := <-out
	if p.err != nil || p.resp.Status != statusShard {
		t.Fatalf("held poll = (%+v, %v), want a shard", p.resp, p.err)
	}
	if lag := p.at.Sub(start); lag > 50*time.Millisecond {
		t.Fatalf("shard arrived %s after Distribute, want within 50ms", lag)
	}
}

// TestHeldPollGetsExpiredShard: worker B's held poll takes over worker
// A's shard as soon as A's lease lapses. Expiry is lazy, so only the
// hub's expiry timer can end the hold in time: B polls 150ms before
// the expiry, and the hold cap (TTL/3 = 300ms) alone would keep it
// 150ms past.
func TestHeldPollGetsExpiredShard(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, _ := newStore(t, spec, cells)
	const ttl = 900 * time.Millisecond
	hub := NewHub(Config{ShardSize: 8, TTL: ttl})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()
	granted := time.Now()
	a, ok, _, _ := hub.lease(context.Background(), wid("A"), 0)
	if !ok {
		t.Fatal("worker A got no lease")
	}
	time.Sleep(time.Until(granted.Add(ttl - 150*time.Millisecond)))

	resp, at, err := pollLease(context.Background(), srv.URL, leaseRequest{Worker: "B", WaitMS: 5000})
	if err != nil || resp.Status != statusShard || resp.Shard != a.Shard {
		t.Fatalf("B's poll = (%+v, %v), want A's shard %d", resp, err, a.Shard)
	}
	if lag := at.Sub(granted.Add(ttl)); lag > 100*time.Millisecond {
		t.Fatalf("B got the shard %s after A's lease expired, want within 100ms", lag)
	}
	if c := hub.counters.Snapshot(); c.LeasesExpired != 1 || c.ShardsReassigned != 1 {
		t.Fatalf("counters = %+v, want 1 expiry and 1 reassignment", c)
	}
}

// TestEmptyPollHonoursWait: with nothing to lease the hub answers after
// the requested wait, and at once when the request asks for none.
func TestEmptyPollHonoursWait(t *testing.T) {
	hub := NewHub(Config{})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	for _, wait := range []time.Duration{0, 200 * time.Millisecond} {
		start := time.Now()
		resp, at, err := pollLease(context.Background(), srv.URL, leaseRequest{Worker: "w1", WaitMS: wait.Milliseconds()})
		if err != nil || resp.Status != statusIdle {
			t.Fatalf("wait %s: poll = (%+v, %v), want idle", wait, resp, err)
		}
		if el := at.Sub(start); el < wait || el > wait+300*time.Millisecond {
			t.Fatalf("wait %s: answered after %s", wait, el)
		}
	}
}

// TestIdleExitWithHeldPolls: a worker's held polls never overrun its
// idle budget — it still exits within IdleExit + 0.5s.
func TestIdleExitWithHeldPolls(t *testing.T) {
	hub := NewHub(Config{})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	const idle = time.Second
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := RunWorker(ctx, WorkerConfig{URL: srv.URL, Name: "w1", Engine: fakeEngine(), IdleExit: idle, Logf: t.Logf}); err != nil {
		t.Fatalf("RunWorker = %v, want a clean idle exit", err)
	}
	if el := time.Since(start); el < idle || el > idle+500*time.Millisecond {
		t.Fatalf("worker exited after %s, want within [%s, %s]", el, idle, idle+500*time.Millisecond)
	}
}

// TestHeldPollListedAsWorker: a worker waiting in a held poll is part
// of the fleet /coord/admin/leases reports.
func TestHeldPollListedAsWorker(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, _ := newStore(t, spec, cells)
	hub := NewHub(Config{ShardSize: 8})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()
	if _, ok, _, _ := hub.lease(context.Background(), wid("busy"), 0); !ok {
		t.Fatal("no lease for the busy worker")
	}

	out, cancel := heldPoll(t, hub, srv.URL, leaseRequest{Worker: "waiting", WaitMS: 5000})
	defer cancel()
	resp, err := http.Get(srv.URL + "/coord/admin/leases")
	if err != nil {
		t.Fatal(err)
	}
	var table struct {
		Workers []WorkerSeen `json:"workers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&table)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-out:
		t.Fatalf("poll answered before the check: %+v", p)
	default:
	}
	for _, w := range table.Workers {
		if w.Name == "waiting" {
			return
		}
	}
	t.Fatalf("admin leases workers = %+v, want the waiting worker listed", table.Workers)
}
