package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/sweep"
)

// fakeEngine fabricates CellResults instead of simulating, so
// coordinator tests are instant. IPC 2 everywhere keeps geomean
// assertions trivial.
func fakeEngine() *service.Engine {
	return service.NewEngine(service.Config{
		Workers: 4,
		Run: func(spec service.Spec) ([]byte, error) {
			return json.Marshal(harness.CellResult{Bench: spec.Bench, Sched: spec.Sched, IPC: 2})
		},
	})
}

// wid builds a WorkerID for tests.
func wid(name string, tags ...string) WorkerID { return WorkerID{Name: name, Tags: tags} }

func eightCellSpec(t *testing.T) (sweep.Spec, []sweep.Cell) {
	t.Helper()
	spec := sweep.Spec{
		Name:        "dist",
		Distributed: true,
		Axes: sweep.Axes{
			Schedulers: []string{"GTO", "CCWS"},
			Benchmarks: []string{"SYRK", "ATAX", "BICG", "KMN"},
		},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("got %d cells", len(cells))
	}
	return spec, cells
}

func newStore(t *testing.T, spec sweep.Spec, cells []sweep.Cell) (*sweep.Store, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "s")
	st, err := sweep.Create(dir, "id", spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

// startWorker runs a RunWorker loop against url until the returned
// stop function is called (which joins the goroutine, so no worker
// outlives its test).
func startWorker(t *testing.T, url, name string, engine *service.Engine) context.CancelFunc {
	t.Helper()
	return startWorkerCfg(t, WorkerConfig{
		URL:    url,
		Name:   name,
		Engine: engine,
		Logf:   t.Logf,
	})
}

// startWorkerCfg is startWorker with full control over the config.
func startWorkerCfg(t *testing.T, cfg WorkerConfig) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(ctx, cfg)
	}()
	return func() {
		cancel()
		<-done
	}
}

func waitDone(t *testing.T, d sweep.DistributedRun) {
	t.Helper()
	select {
	case <-d.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("distributed sweep did not finish: %+v", d.Progress())
	}
}

// okRecordsPerKey reads a store's NDJSON and counts "ok" records per
// cell key — the no-lost-no-duplicated-cells check.
func okRecordsPerKey(t *testing.T, dir string) map[string]int {
	t.Helper()
	recs, corrupt, err := sweep.ReadRecords(dir)
	if err != nil || corrupt != 0 {
		t.Fatalf("ReadRecords = (%d recs, %d corrupt, %v)", len(recs), corrupt, err)
	}
	out := map[string]int{}
	for _, r := range recs {
		if r.Status == sweep.StatusOK {
			out[r.Key]++
		}
	}
	return out
}

func TestDistributedSweepTwoWorkers(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, dir := newStore(t, spec, cells)

	hub := NewHub(Config{ShardSize: 2, TTL: 5 * time.Second})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"w1", "w2"} {
		defer startWorker(t, srv.URL, name, fakeEngine())()
	}
	waitDone(t, d)

	final := d.Progress()
	if final.State != sweep.StateDone || final.Done != 8 || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}
	if final.GeoMeanIPC < 1.99 || final.GeoMeanIPC > 2.01 {
		t.Errorf("geomean = %f, want 2", final.GeoMeanIPC)
	}
	if done := store.Completed(); len(done) != 8 {
		t.Fatalf("store holds %d completed cells, want 8", len(done))
	}
	perKey := okRecordsPerKey(t, dir)
	if len(perKey) != 8 {
		t.Fatalf("store holds ok records for %d cells, want 8", len(perKey))
	}
	for k, n := range perKey {
		if n != 1 {
			t.Errorf("cell %s has %d ok records, want exactly 1", k, n)
		}
	}
	store.Close()

	// Resuming the merged store locally skips everything and seeds the
	// geomean from the merged records.
	st2, err := sweep.Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng := fakeEngine()
	resumed, err := (&sweep.Runner{Engine: eng, Store: st2}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Skipped != 8 || resumed.Executed != 0 {
		t.Errorf("resume after merge = %+v, want all cells skipped", resumed)
	}
	if resumed.GeoMeanIPC < 1.99 || resumed.GeoMeanIPC > 2.01 {
		t.Errorf("resumed geomean = %f, want 2 (merged IPCs must seed it)", resumed.GeoMeanIPC)
	}
	if eng.Simulations() != 0 {
		t.Errorf("resume re-simulated %d cells", eng.Simulations())
	}
}

// TestKilledWorkerShardReassigned: a worker leases a shard and dies
// (never heartbeats, never completes). The lease expires and a live
// worker finishes the sweep — the dead worker costs only its shard.
func TestKilledWorkerShardReassigned(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, dir := newStore(t, spec, cells)
	defer store.Close()

	hub := NewHub(Config{ShardSize: 4, TTL: 150 * time.Millisecond})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := d.(*Coordinator)
	// The "killed" worker: grabs a shard and is never heard from again.
	if _, ok := c.Lease(wid("dead-worker")); !ok {
		t.Fatal("dead worker got no lease")
	}
	defer startWorker(t, srv.URL, "live", fakeEngine())()
	waitDone(t, d)

	if final := d.Progress(); final.State != sweep.StateDone || final.Done != 8 {
		t.Fatalf("final = %+v", final)
	}
	perKey := okRecordsPerKey(t, dir)
	if len(perKey) != 8 {
		t.Fatalf("ok records for %d cells, want 8 (no lost cells)", len(perKey))
	}
	for k, n := range perKey {
		if n != 1 {
			t.Errorf("cell %s has %d ok records (duplicated)", k, n)
		}
	}
	snap := hub.counters.Snapshot()
	if snap.LeasesExpired == 0 {
		t.Error("no lease expiry recorded for the dead worker")
	}
	if snap.ShardsReassigned == 0 {
		t.Error("no shard re-assignment recorded")
	}
}

// TestStaleCompleteIsDedupedNotDuplicated: a worker whose lease
// expired uploads anyway, after the re-assigned worker already acked
// the shard. The upload merges (dedup drops everything already ok) and
// counts as a stale ack; no cell gains a second ok record.
func TestStaleCompleteIsDedupedNotDuplicated(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, dir := newStore(t, spec, cells)
	defer store.Close()

	hub := NewHub(Config{ShardSize: 4, TTL: 50 * time.Millisecond})
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := d.(*Coordinator)

	l1, ok := c.Lease(wid("w1"))
	if !ok {
		t.Fatal("no lease for w1")
	}
	runShard := func(l Lease) []sweep.CellRecord {
		mem := &sweep.MemStore{}
		if _, err := (&sweep.Runner{Engine: fakeEngine(), Store: mem, Indexes: l.Indexes}).Run(context.Background(), cells); err != nil {
			t.Fatal(err)
		}
		return mem.Records()
	}
	recs1 := runShard(l1)

	// w1's lease expires; the shard re-assigns to w2, which completes.
	time.Sleep(120 * time.Millisecond)
	l2, ok := c.Lease(wid("w2"))
	if !ok {
		t.Fatal("expired shard was not re-leased")
	}
	if l2.Shard != l1.Shard {
		t.Fatalf("w2 leased shard %d, want re-assigned shard %d", l2.Shard, l1.Shard)
	}
	if merged, _, err := c.Complete("w2", l2.Shard, runShard(l2)); err != nil || merged != len(recs1) {
		t.Fatalf("w2 complete = (%d, %v), want %d merged", merged, err, len(recs1))
	}

	// w1's late upload: every record is a duplicate.
	merged, skipped, err := c.Complete("w1", l1.Shard, recs1)
	if err != nil || merged != 0 || skipped != len(recs1) {
		t.Fatalf("stale complete = (%d, %d, %v), want all skipped", merged, skipped, err)
	}
	if hub.counters.Snapshot().StaleAcks == 0 {
		t.Error("stale ack not counted")
	}
	for k, n := range okRecordsPerKey(t, dir) {
		if n != 1 {
			t.Errorf("cell %s has %d ok records after stale complete", k, n)
		}
	}
	d.Cancel()
}

// TestFailedCellsReRunOnResume: cell failures are recorded, not fatal,
// and a second distributed run of the same spec (fixed engine) re-runs
// only the failed cells — failed-then-ok merging across runs.
func TestFailedCellsReRunOnResume(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, dir := newStore(t, spec, cells)

	flaky := service.NewEngine(service.Config{
		Workers: 4,
		Run: func(s service.Spec) ([]byte, error) {
			if s.Bench == "KMN" {
				return nil, context.DeadlineExceeded
			}
			return json.Marshal(harness.CellResult{Bench: s.Bench, Sched: s.Sched, IPC: 2})
		},
	})
	hub := NewHub(Config{ShardSize: 8, TTL: 5 * time.Second})
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := d.(*Coordinator)
	l, ok := c.Lease(wid("w1"))
	if !ok {
		t.Fatal("no lease")
	}
	mem := &sweep.MemStore{}
	if _, err := (&sweep.Runner{Engine: flaky, Store: mem, Indexes: l.Indexes}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Complete("w1", l.Shard, mem.Records()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, d)
	if final := d.Progress(); final.State != sweep.StateDone || final.Done != 6 || final.Failed != 2 {
		t.Fatalf("flaky final = %+v, want 6 done / 2 failed", final)
	}
	store.Close()

	// Second run, healthy engine: only the two failed cells re-run.
	st2, err := sweep.Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cells2, _ := spec.Expand()
	d2, err := hub.Distribute("run-2", spec, cells2, st2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2 := d2.(*Coordinator)
	l2, ok := c2.Lease(wid("w1"))
	if !ok {
		t.Fatal("no lease for the retry run")
	}
	if len(l2.Indexes) != 2 {
		t.Fatalf("retry shard has %d cells, want 2 (only the failures)", len(l2.Indexes))
	}
	mem2 := &sweep.MemStore{}
	if _, err := (&sweep.Runner{Engine: fakeEngine(), Store: mem2, Indexes: l2.Indexes}).Run(context.Background(), cells2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.Complete("w1", l2.Shard, mem2.Records()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, d2)
	final := d2.Progress()
	if final.State != sweep.StateDone || final.Done != 8 || final.Failed != 0 || final.Skipped != 6 {
		t.Fatalf("retry final = %+v, want 8 done / 6 skipped", final)
	}
	for k, n := range okRecordsPerKey(t, dir) {
		if n != 1 {
			t.Errorf("cell %s has %d ok records after failed-then-ok", k, n)
		}
	}
}

// TestMisaddressedCompleteCannotRetireShard: a complete naming a shard
// the caller does not hold must not mark that shard done — otherwise a
// buggy or malicious client could finish a sweep with cells that never
// ran. The records still merge (dedup protects), and only a shard
// whose every cell is actually stored ok may retire without its
// holder's ack.
func TestMisaddressedCompleteCannotRetireShard(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, _ := newStore(t, spec, cells)
	defer store.Close()

	hub := NewHub(Config{ShardSize: 4, TTL: 5 * time.Second})
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := d.(*Coordinator)
	l, ok := c.Lease(wid("w1"))
	if !ok {
		t.Fatal("no lease")
	}
	otherShard := 1 - l.Shard

	// A client acks the shard it does NOT hold, with empty records:
	// nothing may retire.
	if _, _, err := c.Complete("w1", otherShard, nil); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.DoneShards != 0 {
		t.Fatalf("mis-addressed empty complete retired a shard: %+v", snap)
	}
	select {
	case <-d.Done():
		t.Fatal("sweep finished with no cells run")
	default:
	}

	// Same mis-addressed ack but carrying w1's real records: the cells
	// merge, so w1's own shard promotes (its cells are all stored ok),
	// but the named shard — whose cells never ran — must stay open.
	mem := &sweep.MemStore{}
	if _, err := (&sweep.Runner{Engine: fakeEngine(), Store: mem, Indexes: l.Indexes}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Complete("nobody", otherShard, mem.Records()); err != nil {
		t.Fatal(err)
	}
	snap = c.Snapshot()
	if snap.DoneShards != 1 || snap.Done != 4 {
		t.Fatalf("after mis-addressed upload: %+v, want w1's shard promoted and the named shard open", snap)
	}
	select {
	case <-d.Done():
		t.Fatalf("sweep finished with %d/%d cells stored", snap.Done, snap.Total)
	default:
	}
	if hub.counters.Snapshot().StaleAcks < 2 {
		t.Error("mis-addressed completes not counted as stale")
	}

	// The legitimate remainder finishes the sweep.
	l2, ok := c.Lease(wid("w2"))
	if !ok {
		t.Fatal("no lease for the open shard")
	}
	if l2.Shard != otherShard {
		t.Fatalf("leased shard %d, want %d", l2.Shard, otherShard)
	}
	mem2 := &sweep.MemStore{}
	if _, err := (&sweep.Runner{Engine: fakeEngine(), Store: mem2, Indexes: l2.Indexes}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Complete("w2", l2.Shard, mem2.Records()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, d)
	if final := d.Progress(); final.State != sweep.StateDone || final.Done != 8 {
		t.Fatalf("final = %+v", final)
	}
}

// TestShardExhaustingLeasesFailsSweep: a shard whose every holder
// vanishes (or cannot upload) must fail the sweep terminally after
// MaxLeases attempts, not re-lease forever while reading "running".
func TestShardExhaustingLeasesFailsSweep(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, _ := newStore(t, spec, cells)
	defer store.Close()

	hub := NewHub(Config{ShardSize: 8, TTL: 30 * time.Millisecond, MaxLeases: 2})
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := d.(*Coordinator)
	for i := 0; i < 2; i++ {
		if _, ok := c.Lease(wid("doomed")); !ok {
			t.Fatalf("lease %d refused; progress %+v", i, d.Progress())
		}
		time.Sleep(80 * time.Millisecond) // let the lease expire
	}
	if _, ok := c.Lease(wid("doomed")); ok {
		t.Fatal("third lease granted, want terminal failure at MaxLeases=2")
	}
	waitDone(t, d)
	final := d.Progress()
	if final.State != sweep.StateFailed || final.Error == "" {
		t.Fatalf("final = %+v, want a failed state with an error", final)
	}
}

// TestPartialAckAndFilteredRelease: a holder ack missing outcomes for
// some of its cells must not retire the shard (the unrun cells would
// be lost); once the lease is reclaimed, the next lessee receives only
// the cells still without a stored success.
func TestPartialAckAndFilteredRelease(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, _ := newStore(t, spec, cells)
	defer store.Close()

	hub := NewHub(Config{ShardSize: 8, TTL: 50 * time.Millisecond})
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := d.(*Coordinator)
	l1, ok := c.Lease(wid("w1"))
	if !ok {
		t.Fatal("no lease")
	}
	// w1 acks having run only half its cells.
	mem := &sweep.MemStore{}
	if _, err := (&sweep.Runner{Engine: fakeEngine(), Store: mem, Indexes: l1.Indexes[:4]}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Complete("w1", l1.Shard, mem.Records()); err != nil {
		t.Fatal(err)
	}
	if snap := c.Snapshot(); snap.DoneShards != 0 || snap.Done != 4 {
		t.Fatalf("partial ack: %+v, want the shard still open with 4 cells done", snap)
	}
	select {
	case <-d.Done():
		t.Fatal("sweep finished with half its cells unrun")
	default:
	}

	// After the TTL the shard re-leases — with only the missing cells.
	time.Sleep(80 * time.Millisecond)
	l2, ok := c.Lease(wid("w2"))
	if !ok {
		t.Fatal("reclaim lease refused")
	}
	if len(l2.Indexes) != 4 {
		t.Fatalf("re-lease carries %d cells, want only the 4 missing", len(l2.Indexes))
	}
	mem2 := &sweep.MemStore{}
	if _, err := (&sweep.Runner{Engine: fakeEngine(), Store: mem2, Indexes: l2.Indexes}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Complete("w2", l2.Shard, mem2.Records()); err != nil {
		t.Fatal(err)
	}
	waitDone(t, d)
	if final := d.Progress(); final.State != sweep.StateDone || final.Done != 8 {
		t.Fatalf("final = %+v", final)
	}
}

// TestCompleteRetryIsIdempotent: a worker whose complete response was
// lost re-uploads the identical records; the retry must not append a
// second copy of anything — including failed records, which the store
// alone would not dedup.
func TestCompleteRetryIsIdempotent(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, dir := newStore(t, spec, cells)
	defer store.Close()

	flaky := service.NewEngine(service.Config{
		Workers: 4,
		Run: func(s service.Spec) ([]byte, error) {
			if s.Bench == "KMN" {
				return nil, context.DeadlineExceeded
			}
			return json.Marshal(harness.CellResult{Bench: s.Bench, Sched: s.Sched, IPC: 2})
		},
	})
	// Two shards, so the sweep is still live when the retry lands and
	// the coordinator's record filter (not the closed guard) must do
	// the dedup.
	hub := NewHub(Config{ShardSize: 4, TTL: 5 * time.Second})
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()
	c := d.(*Coordinator)
	l, ok := c.Lease(wid("w1"))
	if !ok {
		t.Fatal("no lease")
	}
	mem := &sweep.MemStore{}
	if _, err := (&sweep.Runner{Engine: flaky, Store: mem, Indexes: l.Indexes}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	recs := mem.Records()
	if merged, _, err := c.Complete("w1", l.Shard, recs); err != nil || merged != len(recs) {
		t.Fatalf("first complete = (%d, %v)", merged, err)
	}
	// The retry (same worker, same shard, same records).
	merged, skipped, err := c.Complete("w1", l.Shard, recs)
	if err != nil || merged != 0 || skipped != len(recs) {
		t.Fatalf("retried complete = (%d, %d, %v), want everything skipped", merged, skipped, err)
	}
	allRecs, corrupt, err := sweep.ReadRecords(dir)
	if err != nil || corrupt != 0 {
		t.Fatal(err)
	}
	perKey := map[string]int{}
	for _, r := range allRecs {
		perKey[r.Key]++
	}
	for k, n := range perKey {
		if n != 1 {
			t.Errorf("cell %s has %d records after retry, want 1 (ok and failed alike)", k, n)
		}
	}
	if len(perKey) != len(recs) {
		t.Errorf("store holds %d cells, want the shard's %d", len(perKey), len(recs))
	}
}

// TestManagerDistributedEndToEnd drives the full stack the way
// ciaoserve wires it: a manager with the hub as Distributor, a spec
// with "distributed": true, and workers over HTTP.
func TestManagerDistributedEndToEnd(t *testing.T) {
	spec, _ := eightCellSpec(t)
	hub := NewHub(Config{ShardSize: 2, TTL: 5 * time.Second})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()

	m := sweep.NewManager(fakeEngine(), t.TempDir(), 0)
	m.SetDistributor(hub)
	run, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Status().Distributed {
		t.Error("status should report the sweep as distributed")
	}
	for _, name := range []string{"w1", "w2"} {
		defer startWorker(t, srv.URL, name, fakeEngine())()
	}
	select {
	case <-run.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("managed distributed sweep did not finish: %+v", run.Progress())
	}
	final := run.Progress()
	if final.State != sweep.StateDone || final.Done != 8 || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}
	snap := m.MetricsSnapshot()
	if snap["cells_done"].(uint64) != 8 {
		t.Errorf("manager counters = %v, want 8 cells_done", snap)
	}
}

// TestDistributedMatchesLocalBytes is the acceptance criterion: the
// same spec run single-process and run through the coordinator with
// two workers (real simulations, distinct engines) must produce
// byte-identical CellResult JSON per cell.
func TestDistributedMatchesLocalBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	spec := sweep.Spec{
		Name: "bytes",
		Axes: sweep.Axes{
			Schedulers: []string{"GTO", "CIAO-C"},
			Benchmarks: []string{"SYRK", "ATAX"},
		},
		Options: service.OptionSpec{InstrPerWarp: 400, Seed: 7},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	// Single-process reference run.
	localStore, localDir := newStore(t, spec, cells)
	if _, err := (&sweep.Runner{Engine: service.NewEngine(service.Config{Workers: 2}), Store: localStore}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	localStore.Close()

	// Distributed run: one shard per cell, two workers with their own
	// real engines.
	distSpec := spec
	distSpec.Distributed = true
	distStore, distDir := newStore(t, distSpec, cells)
	hub := NewHub(Config{ShardSize: 1, TTL: 30 * time.Second})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	d, err := hub.Distribute("run-1", distSpec, cells, distStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"w1", "w2"} {
		defer startWorker(t, srv.URL, name, service.NewEngine(service.Config{Workers: 2}))()
	}
	waitDone(t, d)
	defer distStore.Close()

	results := func(dir string) map[string][]byte {
		recs, corrupt, err := sweep.ReadRecords(dir)
		if err != nil || corrupt != 0 {
			t.Fatalf("ReadRecords(%s) = (%d, %v)", dir, corrupt, err)
		}
		out := map[string][]byte{}
		for _, r := range recs {
			if r.Status == sweep.StatusOK {
				out[r.Key] = r.Result
			}
		}
		return out
	}
	local, dist := results(localDir), results(distDir)
	if len(local) != len(cells) || len(dist) != len(cells) {
		t.Fatalf("local %d / distributed %d ok cells, want %d", len(local), len(dist), len(cells))
	}
	for k, want := range local {
		if got, ok := dist[k]; !ok {
			t.Errorf("cell %s missing from the distributed store", k)
		} else if !bytes.Equal(got, want) {
			t.Errorf("cell %s: distributed CellResult differs from single-process run", k)
		}
	}
}
