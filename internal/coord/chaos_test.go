package coord

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestChaosMixedFleet is the fault-injection end-to-end: a
// capability-constrained sweep served to three workers with mixed tags
// — one stable, one untagged, one repeatedly "killed" mid-shard — plus
// a wedged worker that heartbeats forever until an operator
// force-expires it through the admin endpoint. The sweep must still
// finish with every cell exactly once and records byte-identical to a
// single-process run of the same spec. Runs under -race in CI.
func TestChaosMixedFleet(t *testing.T) {
	spec, cells := mixedSpec(t)

	// Single-process reference run (the engines are deterministic
	// fakes, so bytes must match exactly).
	localSpec := spec
	localSpec.Distributed = false
	localStore, localDir := newStore(t, localSpec, cells)
	if _, err := (&sweep.Runner{Engine: fakeEngine(), Store: localStore}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	localStore.Close()

	distStore, distDir := newStore(t, spec, cells)
	defer distStore.Close()
	// MaxLeases is generous: the flaky worker's repeated deaths burn
	// leases by design, and lease exhaustion is not what this test
	// probes.
	hub := NewHub(Config{ShardSize: 1, TTL: 250 * time.Millisecond, MaxLeases: 100})
	srv := httptest.NewServer(hub.Handler())
	defer srv.Close()
	d, err := hub.Distribute("chaos-1", spec, cells, distStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := d.(*Coordinator)

	// The wedged worker: grabs one shard and heartbeats it forever
	// without ever completing — only the admin force-expire can free
	// the shard before MaxLeases sees it as poisonous.
	wedge := wid("wedge", "bigmem")
	wl, ok := c.Lease(wedge)
	if !ok {
		t.Fatal("wedge got no lease")
	}
	wedgeDone := make(chan struct{})
	wedgeStop := make(chan struct{})
	go func() {
		defer close(wedgeDone)
		for {
			select {
			case <-wedgeStop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if !c.Heartbeat(wedge, wl.Shard) {
				return // force-expired: the lease is gone, stop wedging
			}
		}
	}()
	defer func() {
		close(wedgeStop)
		<-wedgeDone
	}()

	// The fleet: a stable bigmem worker, an untagged worker (can only
	// run the unconstrained half), and a flaky bigmem worker that is
	// started and killed over and over mid-run.
	defer startTaggedWorker(t, srv.URL, "stable", []string{"bigmem"}, fakeEngine())()
	defer startWorker(t, srv.URL, "small", fakeEngine())()
	flakyDone := make(chan struct{})
	go func() {
		defer close(flakyDone)
		for i := 0; ; i++ {
			select {
			case <-d.Done():
				return
			default:
			}
			stop := startTaggedWorker(t, srv.URL, "flaky", []string{"bigmem"}, fakeEngine())
			select {
			case <-d.Done():
				stop()
				return
			case <-time.After(time.Duration(20+10*(i%5)) * time.Millisecond):
			}
			stop() // kill mid-whatever-it-was-doing
		}
	}()
	defer func() { <-flakyDone }()

	// The operator: wait until the wedged lease has renewed a few
	// times (provably alive and stuck), then force-expire it.
	deadline := time.Now().Add(20 * time.Second)
	for {
		tbl := c.LeaseTable()
		if len(tbl.Shards) > wl.Shard && tbl.Shards[wl.Shard].Renews >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedged lease never renewed: %+v", c.LeaseTable())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code := postAdmin(t, srv, "/coord/admin/expire", "chaos-1", wl.Shard); code != 200 {
		t.Fatalf("admin expire = %d", code)
	}

	waitDone(t, d)
	final := d.Progress()
	if final.State != sweep.StateDone || final.Done != len(cells) || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}
	snap := hub.counters.Snapshot()
	if snap.AdminExpired != 1 {
		t.Errorf("admin_expired = %d, want 1", snap.AdminExpired)
	}

	// No duplicate cell keys, and byte-identical records vs the local
	// run.
	perKey := okRecordsPerKey(t, distDir)
	if len(perKey) != len(cells) {
		t.Fatalf("distributed store has ok records for %d cells, want %d", len(perKey), len(cells))
	}
	for k, n := range perKey {
		if n != 1 {
			t.Errorf("cell %s has %d ok records, want exactly 1", k, n)
		}
	}
	results := func(dir string) map[string][]byte {
		recs, corrupt, err := sweep.ReadRecords(dir)
		if err != nil || corrupt != 0 {
			t.Fatalf("ReadRecords(%s) = (%d corrupt, %v)", dir, corrupt, err)
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
	if len(local) != len(cells) {
		t.Fatalf("local reference run has %d ok cells, want %d", len(local), len(cells))
	}
	for k, want := range local {
		got, ok := dist[k]
		if !ok {
			t.Errorf("cell %s missing from the chaos store", k)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cell %s: chaos-run record differs from the local run", k)
		}
	}
}
