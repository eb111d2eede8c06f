package coord

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/sweep"
)

// mirrorStack is one federated server in the no-shared-filesystem
// topology: its own sweep directory, a hub, a manager wired to it, and
// an httptest server routing /coord/* to the hub and everything else
// (the sweep API the mirror protocol rides on) to the manager.
type mirrorStack struct {
	dir string
	hub *Hub
	mgr *sweep.Manager
	srv *httptest.Server
}

func newMirrorStack(t *testing.T, cfg Config) *mirrorStack {
	t.Helper()
	s := &mirrorStack{dir: t.TempDir()}
	var mu sync.Mutex
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hub, mgr := s.hub, s.mgr
		mu.Unlock()
		if strings.HasPrefix(r.URL.Path, "/coord/") {
			hub.Handler().ServeHTTP(w, r)
			return
		}
		mgr.Handler().ServeHTTP(w, r)
	}))
	cfg.Advertise = s.srv.URL
	mu.Lock()
	s.hub = NewHub(cfg)
	s.mgr = sweep.NewManager(fakeEngine(), s.dir, 0)
	s.mgr.SetDistributor(s.hub)
	mu.Unlock()
	return s
}

// TestFederationSeparateDirsMirrorAndAdopt is the failover e2e for the
// topology ROADMAP item 5 asked for: two servers with *separate*
// -sweepdirs, no shared filesystem. B mirrors A's running sweep —
// manifest, compacted segment, tail, and journal all travel over the
// HTTP blob backend — then A is killed with a shard in flight, B
// adopts its own mirrored copy, and the surviving workers carry the
// sweep to completion on B without re-running a settled cell.
func TestFederationSeparateDirsMirrorAndAdopt(t *testing.T) {
	spec, cells := eightCellSpec(t)
	cfg := Config{ShardSize: 1, TTL: 400 * time.Millisecond, MaxLeases: 100}
	a := newMirrorStack(t, cfg)
	b := newMirrorStack(t, cfg)
	defer b.srv.Close()

	runA, err := a.mgr.Start(spec)
	if err != nil {
		t.Fatal(err)
	}

	// One cell blocks until released, pinning its shard in flight across
	// the kill; both workers share the gate.
	gate := make(chan struct{})
	gatedEngine := func() *service.Engine {
		return service.NewEngine(service.Config{
			Workers: 2,
			Run: func(s service.Spec) ([]byte, error) {
				if s.Bench == "KMN" && s.Sched == "GTO" {
					<-gate
				}
				return json.Marshal(harness.CellResult{Bench: s.Bench, Sched: s.Sched, IPC: 2})
			},
		})
	}
	urls := a.srv.URL + "," + b.srv.URL
	defer startWorkerCfg(t, WorkerConfig{URL: urls, Name: "w1", Engine: gatedEngine(), Logf: t.Logf})()
	defer startWorkerCfg(t, WorkerConfig{URL: urls, Name: "w2", Engine: gatedEngine(), Logf: t.Logf})()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if p := runA.Progress(); p.Done == len(cells)-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never drained the unblocked cells: %+v", runA.Progress())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Freeze the settled records into a segment on A, so the mirror
	// exercises the blob path, not just the tail copy.
	resp, err := http.Post(a.srv.URL+"/sweeps/"+runA.ID()+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr struct {
		Compacted bool               `json:"compacted"`
		Segment   *sweep.SegmentInfo `json:"segment"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil || !cr.Compacted || cr.Segment == nil || cr.Segment.Records != len(cells)-1 {
		t.Fatalf("POST /compact = (%+v, %v), want the %d settled records frozen", cr, err, len(cells)-1)
	}

	// Warm standby: B pulls the running sweep into its own directory.
	if synced, err := b.mgr.MirrorFrom(a.srv.URL); synced != 1 || err != nil {
		t.Fatalf("MirrorFrom = (%d, %v), want the one running sweep", synced, err)
	}
	mirrorDir := filepath.Join(b.dir, "sweep-"+spec.Key()[:16])
	if _, err := os.Stat(filepath.Join(mirrorDir, sweep.SegmentsDir, cr.Segment.Name)); err != nil {
		t.Fatalf("segment blob did not reach B's backend: %v", err)
	}
	if _, err := os.Stat(filepath.Join(mirrorDir, sweep.CoordJournalFile)); err != nil {
		t.Fatalf("journal did not reach B: %v", err)
	}

	// Kill A: socket torn down, coordinator never cancelled — like
	// kill -9, but B holds a mirror instead of a shared directory.
	a.srv.Close()

	if n, err := b.mgr.AdoptOrphans(); n != 1 || err != nil {
		t.Fatalf("AdoptOrphans = (%d, %v), want B to adopt its mirrored copy", n, err)
	}
	run, ok := b.mgr.Get(runA.ID())
	if !ok {
		t.Fatal("adopted sweep not served under its original id on B")
	}

	close(gate)
	select {
	case <-run.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("adopted sweep did not finish on B: %+v", run.Progress())
	}
	final := run.Progress()
	if final.State != sweep.StateDone || final.Done != len(cells) || final.Failed != 0 {
		t.Fatalf("final = %+v, want all %d cells done", final, len(cells))
	}
	if final.Skipped != len(cells)-1 {
		t.Errorf("skipped = %d, want the %d mirrored settled cells skipped, not re-run", final.Skipped, len(cells)-1)
	}
	if got := b.hub.counters.Snapshot().SweepsAdopted; got != 1 {
		t.Errorf("sweeps_adopted = %d, want 1", got)
	}

	// Exactly one ok record per cell in B's store: the segment held the
	// settled seven, the in-flight cell landed once.
	perKey := okRecordsPerKey(t, mirrorDir)
	if len(perKey) != len(cells) {
		t.Fatalf("B's store has ok records for %d cells, want %d", len(perKey), len(cells))
	}
	for k, n := range perKey {
		if n != 1 {
			t.Errorf("cell %s has %d ok records, want exactly 1", k, n)
		}
	}
}

// TestNeedsRecoveryDefersToLivePeer pins the split-brain guard for
// separate-dir federation: a journal this server stamped itself is
// normally its to recover, but if a configured peer is live and
// serving that sweep right now (it adopted our mirror while we were
// down), recovering here would run the sweep twice. Only an explicit
// "running" on the peer defers — a finished sweep there, or a dead
// peer, must not block recovery.
func TestNeedsRecoveryDefersToLivePeer(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, dir := newStore(t, spec, cells)
	c := NewCoordinator("run-peer", spec, cells, store, Config{ShardSize: 4, TTL: time.Minute, Advertise: "http://self:1"}, nil, nil, nil)
	_ = c // the unfinished self-owned journal on disk is the fixture
	store.Close()

	var (
		pmu       sync.Mutex
		peerState = string(sweep.StateRunning)
	)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/sweeps/run-peer" {
			http.NotFound(w, r)
			return
		}
		pmu.Lock()
		st := peerState
		pmu.Unlock()
		writeJSON(w, http.StatusOK, map[string]string{"state": st})
	}))
	defer peer.Close()

	// Peer live and serving the sweep: defer, and remember where to
	// send its workers.
	hub := NewHub(Config{Advertise: "http://self:1", Peer: peer.URL})
	if need, err := hub.NeedsRecovery(dir); err != nil || need {
		t.Fatalf("NeedsRecovery with the peer serving = (%v, %v), want a deferral", need, err)
	}
	if url, ok := hub.redirectFor("run-peer"); !ok || url != peer.URL {
		t.Fatalf("redirect = (%q, %v), want the live peer recorded", url, ok)
	}

	// The peer finished the sweep (or never had it): our journal is
	// stale bookkeeping, recover as usual.
	pmu.Lock()
	peerState = string(sweep.StateDone)
	pmu.Unlock()
	hub = NewHub(Config{Advertise: "http://self:1", Peer: peer.URL})
	if need, err := hub.NeedsRecovery(dir); err != nil || !need {
		t.Fatalf("NeedsRecovery with the sweep done on the peer = (%v, %v), want true", need, err)
	}

	// A dead peer must not wedge boot-time recovery.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	hub = NewHub(Config{Advertise: "http://self:1", Peer: dead.URL})
	if need, err := hub.NeedsRecovery(dir); err != nil || !need {
		t.Fatalf("NeedsRecovery with the peer dead = (%v, %v), want true", need, err)
	}
}
