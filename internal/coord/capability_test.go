package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/sweep"
)

// mixedSpec expands to 8 cells across two configs: 4 unconstrained
// baseline cells and 4 "bigmem" cells (a larger L1, so the two configs
// content-address apart and both survive dedup).
func mixedSpec(t *testing.T) (sweep.Spec, []sweep.Cell) {
	t.Helper()
	spec := sweep.Spec{
		Name:        "mixed",
		Distributed: true,
		Axes: sweep.Axes{
			Schedulers: []string{"GTO", "CCWS"},
			Benchmarks: []string{"SYRK", "ATAX"},
			Configs: []sweep.Config{
				{Name: "base"},
				{Name: "big", Requires: []string{"bigmem"}, Override: harness.Override{L1SizeKB: 32}},
			},
		},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	return spec, cells
}

// completeLease runs a lease's cells through a fake engine and acks it.
func completeLease(t *testing.T, c *Coordinator, worker string, l Lease, cells []sweep.Cell) {
	t.Helper()
	if _, _, err := c.Complete(worker, l.Shard, runLeasedShard(t, l, cells)); err != nil {
		t.Fatal(err)
	}
}

// TestConstrainedShardsRouteToMatchingWorkers is the routing
// acceptance criterion: shards whose cells require "bigmem" are never
// granted to an untagged worker, lease denials on constrained work
// count toward the starvation metrics, and a tagged worker drains
// exactly the constrained shards.
func TestConstrainedShardsRouteToMatchingWorkers(t *testing.T) {
	spec, cells := mixedSpec(t)
	store, _ := newStore(t, spec, cells)
	defer store.Close()

	hub := NewHub(Config{ShardSize: 2, TTL: 5 * time.Second})
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := d.(*Coordinator)

	// The untagged worker can drain only the two unconstrained shards.
	small := wid("small")
	for i := 0; i < 2; i++ {
		l, ok := c.Lease(small)
		if !ok {
			t.Fatalf("untagged worker refused lease %d", i)
		}
		for _, idx := range l.Indexes {
			if req := cells[idx].Requires; len(req) != 0 {
				t.Fatalf("untagged worker leased constrained cell %d (requires %v)", idx, req)
			}
		}
		completeLease(t, c, small.Name, l, cells)
	}
	// Everything left requires bigmem: the untagged worker is starved
	// out, visibly.
	if _, ok := c.Lease(small); ok {
		t.Fatal("untagged worker leased a bigmem shard")
	}
	if got := hub.counters.Snapshot().LeasesStarved; got == 0 {
		t.Error("constrained lease denial not counted in LeasesStarved")
	}
	if p := c.Progress(); p.Starved != 4 {
		t.Errorf("Progress.Starved = %d, want 4 (the bigmem cells)", p.Starved)
	}
	if snap := c.Snapshot(); snap.Starved != 4 {
		t.Errorf("Snapshot starved = %d, want 4", snap.Starved)
	}

	// A tagged worker joining unblocks the rest; extra tags are fine
	// (superset match).
	big := wid("big", "bigmem", "gpu")
	for i := 0; i < 2; i++ {
		l, ok := c.Lease(big)
		if !ok {
			t.Fatalf("tagged worker refused lease %d; %+v", i, c.Snapshot())
		}
		for _, idx := range l.Indexes {
			if req := cells[idx].Requires; len(req) != 1 || req[0] != "bigmem" {
				t.Fatalf("tagged worker's lease carries cell %d with requires %v, want [bigmem]", idx, req)
			}
		}
		completeLease(t, c, big.Name, l, cells)
	}
	waitDone(t, d)
	final := d.Progress()
	if final.State != sweep.StateDone || final.Done != 8 || final.Starved != 0 {
		t.Fatalf("final = %+v", final)
	}
}

// TestMaxCellsHintRespected: a worker advertising a max-cells ceiling
// below the shard size never receives that shard; an unlimited worker
// does.
func TestMaxCellsHintRespected(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, _ := newStore(t, spec, cells)
	defer store.Close()

	hub := NewHub(Config{ShardSize: 4, TTL: 5 * time.Second})
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()
	c := d.(*Coordinator)

	tiny := WorkerID{Name: "tiny", MaxCells: 2}
	if _, ok := c.Lease(tiny); ok {
		t.Fatal("worker with maxcells=2 leased a 4-cell shard")
	}
	if got := hub.counters.Snapshot().LeasesStarved; got == 0 {
		t.Error("size-constrained denial not counted in LeasesStarved")
	}
	if _, ok := c.Lease(WorkerID{Name: "roomy", MaxCells: 4}); !ok {
		t.Fatal("worker with maxcells=4 refused a 4-cell shard")
	}
	if _, ok := c.Lease(wid("unlimited")); !ok {
		t.Fatal("unlimited worker refused a shard")
	}
}

// TestStarvedSweepCompletesWhenMatchingWorkerJoins is the satellite
// acceptance test: a sweep whose requires no live worker satisfies
// must surface "starved" in /sweeps status instead of hanging
// silently, and must finish once a matching worker joins — driven
// end-to-end through the manager, the hub's HTTP API and RunWorker.
func TestStarvedSweepCompletesWhenMatchingWorkerJoins(t *testing.T) {
	spec := sweep.Spec{
		Name:        "starved",
		Distributed: true,
		Requires:    []string{"bigmem"},
		Axes: sweep.Axes{
			Schedulers: []string{"GTO"},
			Benchmarks: []string{"SYRK", "ATAX"},
		},
	}
	if _, err := spec.Expand(); err != nil {
		t.Fatal(err)
	}

	hub := NewHub(Config{ShardSize: 1, TTL: 5 * time.Second})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	m := sweep.NewManager(fakeEngine(), t.TempDir(), 0)
	m.SetDistributor(hub)
	run, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}

	// An untagged worker polls away; the sweep must report starved.
	defer startWorker(t, srv.URL, "plain", fakeEngine())()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if p := run.Progress(); p.Starved == 2 && p.State == sweep.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("starvation never surfaced in status: %+v", run.Progress())
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-run.Done():
		t.Fatalf("constrained sweep finished with no matching worker: %+v", run.Progress())
	default:
	}

	// The matching worker joins; the sweep completes.
	stop := func() {}
	defer func() { stop() }()
	ctxStop := startTaggedWorker(t, srv.URL, "big", []string{"bigmem"}, fakeEngine())
	stop = ctxStop
	select {
	case <-run.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("sweep did not finish after a matching worker joined: %+v", run.Progress())
	}
	final := run.Progress()
	if final.State != sweep.StateDone || final.Done != 2 || final.Starved != 0 {
		t.Fatalf("final = %+v", final)
	}
}

// startTaggedWorker mirrors startWorker with capability tags.
func startTaggedWorker(t *testing.T, url, name string, tags []string, engine *service.Engine) func() {
	t.Helper()
	return startWorkerCfg(t, WorkerConfig{
		URL:    url,
		Name:   name,
		Tags:   tags,
		Engine: engine,
		Logf:   t.Logf,
	})
}

// TestBusyWorkerElsewhereIsNotStarvation: a worker that leased from
// sweep A and is only heartbeating must stay a live capability for
// sweep B on the same hub — B's constrained shards are waiting, not
// starved, because the capable worker will be back on its next poll.
func TestBusyWorkerElsewhereIsNotStarvation(t *testing.T) {
	specA, cellsA := eightCellSpec(t)
	storeA, _ := newStore(t, specA, cellsA)
	defer storeA.Close()
	specB := sweep.Spec{
		Name:        "constrained",
		Distributed: true,
		Requires:    []string{"bigmem"},
		Axes:        sweep.Axes{Schedulers: []string{"GTO"}, Benchmarks: []string{"SYRK", "ATAX"}},
	}
	cellsB, err := specB.Expand()
	if err != nil {
		t.Fatal(err)
	}
	storeB, _ := newStore(t, specB, cellsB)
	defer storeB.Close()

	hub := NewHub(Config{ShardSize: 8, TTL: 5 * time.Second})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	dA, err := hub.Distribute("run-a", specA, cellsA, storeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dA.Cancel()
	dB, err := hub.Distribute("run-b", specB, cellsB, storeB, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dB.Cancel()
	cB := dB.(*Coordinator)

	// Nobody has ever been seen: the constrained sweep is starved.
	if p := cB.Progress(); p.Starved != 2 {
		t.Fatalf("pre-fleet Starved = %d, want 2", p.Starved)
	}

	// The capable worker leases through the hub and gets sweep A's
	// shard (registered first) — the hub-wide scan must still record
	// its capabilities with sweep B.
	big := WorkerID{Name: "big", Tags: []string{"bigmem"}}
	l, ok, _, _ := hub.lease(context.Background(), big, 0)
	if !ok || l.Sweep != "run-a" {
		t.Fatalf("hub.lease = (%+v, %v), want sweep A's shard", l, ok)
	}
	if p := cB.Progress(); p.Starved != 0 {
		t.Fatalf("Starved = %d after the capable worker's poll, want 0", p.Starved)
	}

	// Heartbeats over HTTP (busy on A, never polling) keep it visible
	// to B too.
	body, _ := json.Marshal(heartbeatRequest{Worker: "big", Sweep: "run-a", Shard: l.Shard, Tags: big.Tags})
	resp, err := http.Post(srv.URL+"/coord/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p := cB.Progress(); p.Starved != 0 {
		t.Fatalf("Starved = %d while the capable worker heartbeats elsewhere, want 0", p.Starved)
	}

	// A denied hub-wide poll by an untagged worker counts one starved
	// lease, not one per constrained sweep — and only when nothing in
	// the whole scan was granted.
	before := hub.counters.Snapshot().LeasesStarved
	_, ok, _, starved := hub.lease(context.Background(), wid("plain"), 0)
	if ok {
		t.Fatal("untagged worker got a lease with A leased out and B constrained")
	}
	if starved {
		t.Error("poll flagged starved while sweep A is merely leased out (retry is meaningful)")
	}
	if got := hub.counters.Snapshot().LeasesStarved; got != before+1 {
		t.Fatalf("leases_starved went %d -> %d, want +1 per denied poll", before, got)
	}
}

// TestStarvedWorkerHonorsIdleExit: a worker that can serve none of
// the remaining shards receives the "starved" lease status and counts
// it toward -idle-exit, instead of polling forever on work it can
// never run.
func TestStarvedWorkerHonorsIdleExit(t *testing.T) {
	spec := sweep.Spec{
		Name:        "starved-exit",
		Distributed: true,
		Requires:    []string{"bigmem"},
		Axes:        sweep.Axes{Schedulers: []string{"GTO"}, Benchmarks: []string{"SYRK"}},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	store, _ := newStore(t, spec, cells)
	defer store.Close()

	hub := NewHub(Config{ShardSize: 1, TTL: 5 * time.Second})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()

	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{
			URL:      srv.URL,
			Name:     "plain",
			Engine:   fakeEngine(),
			IdleExit: 200 * time.Millisecond,
			Logf:     t.Logf,
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunWorker = %v, want clean idle-exit", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("capability-starved worker never idle-exited")
	}
	// The sweep itself is untouched — still waiting for a capable
	// worker.
	if p := d.Progress(); p.State != sweep.StateRunning {
		t.Fatalf("sweep state = %+v, want still running", p)
	}
}

// TestMalformedWorkerTagsRejected: tags the spec side would refuse
// are a 400 at the lease and heartbeat endpoints, not silently
// recorded as unmatchable capability strings.
func TestMalformedWorkerTagsRejected(t *testing.T) {
	hub := NewHub(Config{})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	for _, path := range []string{"/coord/lease", "/coord/heartbeat"} {
		body := []byte(`{"worker":"w1","tags":["big mem"]}`)
		if path == "/coord/heartbeat" {
			body = []byte(`{"worker":"w1","sweep":"s","shard":0,"tags":["a,b"]}`)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with malformed tags = %d, want 400", path, resp.StatusCode)
		}
	}
}
