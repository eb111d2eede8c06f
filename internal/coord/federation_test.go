package coord

import (
	"bytes"
	"context"
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

// TestJournalOwnershipRoundTrip: a coordinator configured with an
// advertise URL stamps it into every journal snapshot, and an adopt
// line moves ownership on replay without touching any shard.
func TestJournalOwnershipRoundTrip(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, _ := newStore(t, spec, cells)
	defer store.Close()

	c := NewCoordinator("run-1", spec, cells, store, Config{ShardSize: 4, TTL: time.Minute, Advertise: "http://a:1"}, nil, nil, nil)
	defer c.Cancel()
	st, err := replayJournal(store.CoordJournalPath())
	if err != nil {
		t.Fatal(err)
	}
	if st.owner != "http://a:1" {
		t.Fatalf("journal owner = %q, want the advertised URL", st.owner)
	}

	// A hand-written adopt line re-attributes the journal on replay.
	path := filepath.Join(t.TempDir(), "j.ndjson")
	lines := strings.Join([]string{
		`{"t":"snapshot","sweep":"run-9","owner":"http://a:1","shards":[{"id":0,"indexes":[0,1],"state":"pending"}]}`,
		`{"t":"lease","shard":0,"worker":"w1","expires":"2026-08-08T00:00:00Z","leases":1}`,
		`{"t":"adopt","sweep":"run-9","owner":"http://b:2"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.owner != "http://b:2" || st.corrupt != 0 || st.entries != 3 {
		t.Fatalf("replay = owner %q corrupt %d entries %d, want adopted by b with all lines applied", st.owner, st.corrupt, st.entries)
	}
	if st.shards[0].State != shardStateLeased || st.shards[0].Worker != "w1" {
		t.Fatalf("adopt disturbed the lease table: %+v", st.shards[0])
	}
}

// TestNeedsRecoveryOwnershipGate: at boot a server resumes its own
// journals and ownerless (pre-federation) ones, but leaves a live
// sibling's alone — remembering where to redirect that sweep's
// workers instead.
func TestNeedsRecoveryOwnershipGate(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, dir := newStore(t, spec, cells)
	c := NewCoordinator("run-owned", spec, cells, store, Config{ShardSize: 4, TTL: time.Minute, Advertise: "http://a:1"}, nil, nil, nil)
	_ = c // the unfinished journal on disk is the fixture; the coordinator itself stays passive
	store.Close()

	for _, tc := range []struct {
		advertise string
		want      bool
	}{
		{"http://a:1", true}, // own journal: recover as before
		{"http://b:2", false},
		{"", false}, // an unfederated server must not steal a federated sweep
	} {
		hub := NewHub(Config{Advertise: tc.advertise})
		need, err := hub.NeedsRecovery(dir)
		if err != nil {
			t.Fatal(err)
		}
		if need != tc.want {
			t.Errorf("NeedsRecovery as %q = %v, want %v", tc.advertise, need, tc.want)
		}
		if !tc.want {
			if url, ok := hub.redirectFor("run-owned"); !ok || url != "http://a:1" {
				t.Errorf("as %q: redirect = (%q, %v), want the owner recorded", tc.advertise, url, ok)
			}
		}
	}

	// An ownerless journal (a pre-federation build wrote it) stays
	// recoverable by anyone.
	store2, dir2 := newStore(t, spec, cells)
	c2 := NewCoordinator("run-legacy", spec, cells, store2, Config{ShardSize: 4, TTL: time.Minute}, nil, nil, nil)
	_ = c2
	store2.Close()
	hub := NewHub(Config{Advertise: "http://b:2"})
	if need, err := hub.NeedsRecovery(dir2); err != nil || !need {
		t.Fatalf("NeedsRecovery(ownerless journal) = (%v, %v), want true", need, err)
	}
}

// redirectStub is half of a scripted federated pair: it optionally
// grants one lease, then answers every heartbeat and complete with a
// redirect to its sibling — the wire behaviour of a server that
// declined to recover a sweep the sibling now owns.
type redirectStub struct {
	t *testing.T
	// target is where heartbeats/completes are redirected; empty means
	// this stub accepts them itself.
	mu        sync.Mutex
	target    string
	lease     *Lease
	leased    bool
	hbSeen    int
	completes int
	got       []sweep.CellRecord
}

func (s *redirectStub) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /coord/lease", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.lease == nil || s.leased {
			writeJSON(w, http.StatusOK, leaseResponse{Status: statusIdle})
			return
		}
		s.leased = true
		writeJSON(w, http.StatusOK, leaseResponse{
			Status: statusShard, Sweep: s.lease.Sweep, Shard: s.lease.Shard,
			Indexes: s.lease.Indexes, Spec: &s.lease.Spec, TTLMS: s.lease.TTL.Milliseconds(),
		})
	})
	mux.HandleFunc("POST /coord/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.hbSeen++
		if s.target != "" {
			writeJSON(w, http.StatusOK, heartbeatResponse{Status: statusRedirect, URL: s.target})
			return
		}
		writeJSON(w, http.StatusOK, heartbeatResponse{Status: statusOK, TTLMS: 30})
	})
	mux.HandleFunc("POST /coord/complete", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.completes++
		if s.target != "" {
			writeJSON(w, http.StatusOK, completeResponse{Status: statusRedirect, URL: s.target})
			return
		}
		var req completeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			s.t.Errorf("complete body: %v", err)
		}
		s.got = append(s.got, req.Records...)
		writeJSON(w, http.StatusOK, completeResponse{Status: statusOK, Merged: len(req.Records)})
	})
	return mux
}

// TestWorkerFollowsRedirectMidShard: the sweep is adopted by a peer
// while the worker is mid-shard. The old server answers heartbeats
// with a redirect instead of "stale"; the worker must switch servers,
// keep the shard alive there, and upload every record to the adopter —
// nothing abandoned, nothing dropped, nothing sent to the old server.
func TestWorkerFollowsRedirectMidShard(t *testing.T) {
	spec := sweep.Spec{
		Name: "redirect",
		Axes: sweep.Axes{Schedulers: []string{"GTO"}, Benchmarks: []string{"SYRK", "ATAX"}},
	}
	if _, err := spec.Expand(); err != nil {
		t.Fatal(err)
	}

	adopter := &redirectStub{t: t}
	srvB := httptest.NewServer(adopter.handler())
	defer srvB.Close()
	old := &redirectStub{
		t:      t,
		target: srvB.URL,
		lease:  &Lease{Sweep: "run-1", Shard: 0, Indexes: []int{0, 1}, Spec: spec, TTL: 30 * time.Millisecond},
	}
	srvA := httptest.NewServer(old.handler())
	defer srvA.Close()

	// SYRK returns instantly; ATAX holds the shard in flight long
	// enough for a heartbeat (every TTL/3 = 10ms) to hit the redirect.
	gate := make(chan struct{})
	var gateOnce sync.Once
	engine := service.NewEngine(service.Config{
		Workers: 2,
		Run: func(s service.Spec) ([]byte, error) {
			if s.Bench == "ATAX" {
				gateOnce.Do(func() {
					go func() {
						time.Sleep(150 * time.Millisecond)
						close(gate)
					}()
				})
				<-gate
			}
			return json.Marshal(harness.CellResult{Bench: s.Bench, Sched: s.Sched, IPC: 2})
		},
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := RunWorker(ctx, WorkerConfig{
		URL:      srvA.URL, // the worker knows only the old server; the redirect teaches it the adopter
		Name:     "w1",
		Engine:   engine,
		IdleExit: 200 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("RunWorker = %v", err)
	}

	old.mu.Lock()
	adopter.mu.Lock()
	defer old.mu.Unlock()
	defer adopter.mu.Unlock()
	if old.hbSeen == 0 {
		t.Fatal("the old server never saw a heartbeat; the redirect path was not exercised")
	}
	// The worker may well post its first complete to the old server —
	// that answer is a redirect, so nothing merges there.
	if len(old.got) != 0 {
		t.Fatalf("old server merged %d records; they belong to the adopter", len(old.got))
	}
	keys := map[string]bool{}
	for _, rec := range adopter.got {
		keys[rec.Key] = true
	}
	if len(keys) != 2 {
		t.Fatalf("adopter received %d distinct cells, want both (%d records; heartbeats seen: %d)",
			len(keys), len(adopter.got), adopter.hbSeen)
	}
}

// TestManagerAdoptOrphans drives the operator path end-to-end at the
// manager layer: a dead sibling's unfinished sweep under the shared
// base directory is skipped by the boot scan (foreign owner), adopted
// by AdoptOrphans, re-stamped in the journal, served under its
// original id, and finished by a worker.
func TestManagerAdoptOrphans(t *testing.T) {
	spec, cells := eightCellSpec(t)
	base := t.TempDir()
	dir := filepath.Join(base, "sweep-orphan")
	store, err := sweep.Create(dir, "sweep-3-cafecafe", spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	hubA := NewHub(Config{ShardSize: 2, TTL: time.Minute, Advertise: "http://dead-owner:1"})
	dA, err := hubA.Distribute("sweep-3-cafecafe", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	cA := dA.(*Coordinator)
	l, ok := cA.Lease(wid("w1"))
	if !ok {
		t.Fatal("no lease")
	}
	if _, _, err := cA.Complete("w1", l.Shard, runLeasedShard(t, l, cells)); err != nil {
		t.Fatal(err)
	}
	store.Close() // the owner dies here

	hubB := NewHub(Config{ShardSize: 2, TTL: 400 * time.Millisecond, Advertise: "http://b:2"})
	m := sweep.NewManager(fakeEngine(), base, 0)
	m.SetDistributor(hubB)
	if n, err := m.Recover(); n != 0 || err != nil {
		t.Fatalf("Recover = (%d, %v), want the foreign journal left alone", n, err)
	}
	if url, ok := hubB.redirectFor("sweep-3-cafecafe"); !ok || url != "http://dead-owner:1" {
		t.Fatalf("redirect after boot = (%q, %v), want the dead owner recorded", url, ok)
	}

	n, err := m.AdoptOrphans()
	if n != 1 || err != nil {
		t.Fatalf("AdoptOrphans = (%d, %v), want 1 adopted sweep", n, err)
	}
	if _, ok := hubB.redirectFor("sweep-3-cafecafe"); ok {
		t.Fatal("redirect survived adoption; workers would be bounced off their new home")
	}
	if got := hubB.counters.Snapshot().SweepsAdopted; got != 1 {
		t.Errorf("sweeps_adopted = %d, want 1", got)
	}
	st, err := replayJournal(filepath.Join(dir, sweep.CoordJournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if st.owner != "http://b:2" {
		t.Fatalf("journal owner after adoption = %q, want the adopter", st.owner)
	}
	run, ok := m.Get("sweep-3-cafecafe")
	if !ok {
		t.Fatal("adopted run not served under its original id")
	}

	// While the sweep runs here, a second sweep of AdoptOrphans finds
	// nothing new (the spec key is busy).
	if n, err := m.AdoptOrphans(); n != 0 || err != nil {
		t.Fatalf("second AdoptOrphans = (%d, %v), want a no-op", n, err)
	}

	srv := httptest.NewServer(hubB.Handler())
	defer srv.Close()
	defer startWorker(t, srv.URL, "w9", fakeEngine())()
	select {
	case <-run.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("adopted sweep did not finish: %+v", run.Progress())
	}
	final := run.Progress()
	if final.State != sweep.StateDone || final.Done != 8 || final.Skipped != 2 || final.Failed != 0 {
		t.Fatalf("final = %+v, want 8 done with the 2 pre-adoption cells skipped", final)
	}
}

// newFedServer stands up a hub whose Advertise is its own server URL —
// the chicken-and-egg a real ciaoserve resolves with the -advertise
// flag, resolved here by building the handler behind an indirection.
func newFedServer(t *testing.T, cfg Config) (*Hub, *httptest.Server) {
	t.Helper()
	var (
		mu  sync.Mutex
		hub *Hub
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := hub
		mu.Unlock()
		h.Handler().ServeHTTP(w, r)
	}))
	cfg.Advertise = srv.URL
	mu.Lock()
	hub = NewHub(cfg)
	mu.Unlock()
	return hub, srv
}

// TestFederationPeerAdoptsOrphanedSweep is the chaos-grade failover
// end-to-end, run under -race in CI: two servers share one sweep
// directory, workers know both URLs, and the owning server is killed
// (socket torn down, coordinator never cancelled — the journal stays
// unfinished on disk, exactly like kill -9) while a worker holds a
// shard in flight. The peer adopts the sweep by replaying the journal;
// the surviving workers must carry their leases across the hand-off —
// no settled cell re-runs, the in-flight shard's records land on the
// adopter — and the merged store must be byte-identical to a
// single-process run of the same spec.
func TestFederationPeerAdoptsOrphanedSweep(t *testing.T) {
	spec, cells := eightCellSpec(t)

	// Single-process reference run (deterministic fake engines, so
	// bytes must match exactly).
	localSpec := spec
	localSpec.Distributed = false
	localStore, localDir := newStore(t, localSpec, cells)
	if _, err := (&sweep.Runner{Engine: fakeEngine(), Store: localStore}).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	localStore.Close()

	cfg := Config{ShardSize: 1, TTL: 400 * time.Millisecond, MaxLeases: 100}
	hubA, srvA := newFedServer(t, cfg)
	hubB, srvB := newFedServer(t, cfg)
	defer srvB.Close()

	storeA, dir := newStore(t, spec, cells)
	defer storeA.Close()
	dA, err := hubA.Distribute("run-fed", spec, cells, storeA, nil)
	if err != nil {
		t.Fatal(err)
	}

	// B boots while A is alive and owns the sweep: the ownership gate
	// must decline and remember where the sweep lives.
	if need, err := hubB.NeedsRecovery(dir); err != nil || need {
		t.Fatalf("NeedsRecovery on the live owner's journal = (%v, %v), want false", need, err)
	}
	if url, ok := hubB.redirectFor("run-fed"); !ok || url != srvA.URL {
		t.Fatalf("redirect = (%q, %v), want A recorded as owner", url, ok)
	}

	// One cell blocks until released, pinning its shard in flight
	// across the kill; both workers share the gate so whoever leases it
	// wedges there.
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
	urls := srvA.URL + "," + srvB.URL
	defer startWorkerCfg(t, WorkerConfig{URL: urls, Name: "w1", Engine: gatedEngine(), Logf: t.Logf})()
	defer startWorkerCfg(t, WorkerConfig{URL: urls, Name: "w2", Engine: gatedEngine(), Logf: t.Logf})()

	// Wait until every unblocked cell is settled and only the gated
	// shard remains in flight, heartbeat-renewed by its holder.
	deadline := time.Now().Add(30 * time.Second)
	for {
		p := dA.Progress()
		if p.Done == len(cells)-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never drained the unblocked cells: %+v", p)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill A: the socket dies, the coordinator is never cancelled, the
	// journal on disk still reads "running, one shard leased".
	srvA.Close()

	// B adopts from the shared directory, exactly as its peer watcher
	// (or POST /coord/adopt) would.
	storeB, err := sweep.Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer storeB.Close()
	dB, id, err := hubB.Adopt(spec, cells, storeB, nil)
	if err != nil || dB == nil {
		t.Fatalf("Adopt = (%v, %v)", dB, err)
	}
	if id != "run-fed" {
		t.Fatalf("adopted id = %q, want the original sweep id", id)
	}

	// Release the gated cell: its holder finishes the shard against B —
	// the heartbeats and the upload followed the hand-off.
	close(gate)
	waitDone(t, dB)
	final := dB.Progress()
	if final.State != sweep.StateDone || final.Done != len(cells) || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}
	snap := hubB.counters.Snapshot()
	if snap.SweepsAdopted != 1 {
		t.Errorf("sweeps_adopted = %d, want 1", snap.SweepsAdopted)
	}

	// Exactly one ok record per cell: the adopter re-ran nothing that
	// was settled, and the in-flight shard was not lost or duplicated.
	perKey := okRecordsPerKey(t, dir)
	if len(perKey) != len(cells) {
		t.Fatalf("store has ok records for %d cells, want %d", len(perKey), len(cells))
	}
	for k, n := range perKey {
		if n != 1 {
			t.Errorf("cell %s has %d ok records, want exactly 1", k, n)
		}
	}

	// Byte-identical result payloads vs the single-process run.
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
	local, fed := results(localDir), results(dir)
	for k, want := range local {
		got, ok := fed[k]
		if !ok {
			t.Errorf("cell %s missing from the federated store", k)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cell %s: federated record differs from the local run", k)
		}
	}
}
