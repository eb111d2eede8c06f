package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// Body limits: control messages are tiny; a complete carries a whole
// shard's records (payloads included).
const (
	maxControlBytes  = 1 << 16
	maxCompleteBytes = 64 << 20
)

// Hub aggregates the live coordinators of one server, serves the
// /coord HTTP API to workers, and acts as the sweep manager's
// Distributor: a spec with "distributed": true is handed here instead
// of the in-process runner.
type Hub struct {
	cfg      Config
	counters metrics.CoordCounters
	// reg is the fleet registry every coordinator of this hub shares:
	// one entry per worker, covering its capabilities, liveness and
	// current leases across sweeps. A lease poll or heartbeat updates
	// it once instead of fanning out to every coordinator.
	reg *workerRegistry

	mu     sync.Mutex
	coords map[string]*Coordinator
	order  []string
	// redirects maps sweep ids this server declined to recover — their
	// journals name another live owner — to that owner's URL. Surviving
	// workers that poll or heartbeat here for such a sweep are sent
	// there instead of being told "stale" (which would make them drop
	// partial records and abandon leases the owner still honours).
	redirects map[string]string
	// adoptFunc, when set, serves POST /coord/adopt — the operator's
	// (or peer watcher's) lever to take over orphaned sweeps. It lives
	// on the manager, which owns directory scanning; the hub only wires
	// it to HTTP.
	adoptFunc func() (int, error)

	// wake is closed (and replaced) by signal whenever a shard may have
	// become leasable, releasing every held lease poll at once; closed
	// releases them for good when the hub shuts down.
	wakeMu    sync.Mutex
	wake      chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
}

// NewHub builds a hub; cfg applies to every coordinator it creates.
func NewHub(cfg Config) *Hub {
	return &Hub{
		cfg:       cfg,
		reg:       newWorkerRegistry(cfg.ttl()),
		coords:    map[string]*Coordinator{},
		redirects: map[string]string{},
		wake:      make(chan struct{}),
		closed:    make(chan struct{}),
	}
}

// Close releases every held lease poll and stops holding new ones, so
// a draining server need not wait them out. The hub keeps answering.
func (h *Hub) Close() { h.closeOnce.Do(func() { close(h.closed) }) }

// changes returns the channel the next signal closes. Take it before
// scanning, so a change that lands between the scan and the hold is
// not missed.
func (h *Hub) changes() <-chan struct{} {
	h.wakeMu.Lock()
	defer h.wakeMu.Unlock()
	return h.wake
}

// signal wakes every held lease poll to re-scan.
func (h *Hub) signal() {
	h.wakeMu.Lock()
	defer h.wakeMu.Unlock()
	close(h.wake)
	h.wake = make(chan struct{})
}

// SetAdoptFunc installs the callback POST /coord/adopt runs — usually
// the sweep manager's AdoptOrphans. Call before serving requests.
func (h *Hub) SetAdoptFunc(f func() (int, error)) {
	h.mu.Lock()
	h.adoptFunc = f
	h.mu.Unlock()
}

// Distribute implements sweep.Distributor: it stands up a coordinator
// for the sweep, registers it for leasing, and unregisters it when it
// finishes.
func (h *Hub) Distribute(id string, spec sweep.Spec, cells []sweep.Cell, store *sweep.Store, onProgress func(sweep.Progress)) (sweep.DistributedRun, error) {
	c := NewCoordinator(id, spec, cells, store, h.cfg, h.reg, &h.counters, onProgress)
	h.register(c)
	return c, nil
}

// NeedsRecovery implements the cheap probe of sweep.Recoverer: it
// replays only the journal (a finished sweep's is two lines) to
// report whether dir holds an interrupted coordinator, so startup
// never opens the stores of finished sweeps. A missing journal is a
// clean "no"; an unreadable one is an error — silently skipping it
// would drop a live sweep without a trace.
//
// On a shared -sweepdir the journal's owner gates recovery: a journal
// another server stamped (and this one did not adopt) is not ours to
// resume — booting it here would split the sweep's brain, two lease
// tables granting the same shards. The sweep id is remembered as a
// redirect instead, so this server's answer to that sweep's surviving
// workers is "go there", not "stale". A journal with no owner predates
// federation and stays recoverable by anyone.
//
// A self-owned journal gets one more check when a -peer is configured:
// with *separate* sweep directories (mirror-based federation), a peer
// that adopted this sweep while we were down re-stamped only its own
// copy of the journal — ours still says we own it. Recovering it here
// anyway would run the sweep twice, so if the peer is live and serving
// the sweep right now, this server defers and redirects instead.
func (h *Hub) NeedsRecovery(dir string) (bool, error) {
	st, err := replayJournal(filepath.Join(dir, sweep.CoordJournalFile))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if st.sweepID == "" || st.finished {
		return false, nil
	}
	if st.owner != "" && st.owner != h.cfg.Advertise {
		h.mu.Lock()
		h.redirects[st.sweepID] = st.owner
		h.mu.Unlock()
		return false, nil
	}
	if h.cfg.Peer != "" && h.peerServes(st.sweepID) {
		h.mu.Lock()
		h.redirects[st.sweepID] = h.cfg.Peer
		h.mu.Unlock()
		return false, nil
	}
	return true, nil
}

// peerServes probes whether the configured peer is live and currently
// serving the sweep. A dead or unreachable peer answers false fast
// (boot-time recovery must not hang on it); only an explicit "running"
// counts — a finished or unknown sweep on the peer is no reason to
// withhold recovery here.
func (h *Hub) peerServes(sweepID string) bool {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(strings.TrimRight(h.cfg.Peer, "/") + "/sweeps/" + sweepID)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var st struct {
		State string `json:"state"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, maxControlBytes)).Decode(&st) != nil {
		return false
	}
	return st.State == string(sweep.StateRunning)
}

// Orphaned implements the probe half of sweep.Adopter: it reports the
// journaled owner of dir's sweep and whether the sweep is unfinished —
// adoptable by this server once the owner is known dead. Ownership is
// reported, not judged: the caller (an operator hitting /coord/adopt,
// or the peer watcher after repeated failed health probes) supplies
// the "it is dead" half of the decision.
func (h *Hub) Orphaned(dir string) (owner string, orphaned bool, err error) {
	st, err := replayJournal(filepath.Join(dir, sweep.CoordJournalFile))
	if errors.Is(err, fs.ErrNotExist) {
		return "", false, nil
	}
	if err != nil {
		return "", false, err
	}
	return st.owner, st.sweepID != "" && !st.finished, nil
}

// Adopt implements sweep.Adopter: it rebuilds the coordinator of an
// orphaned sweep exactly as Recover would — journal replay, store-
// seeded outcomes, surviving leases intact — but regardless of which
// server's URL the journal carries. The recovery compaction rewrites
// the snapshot under this server's identity (renaming the journal away
// from any file handle the dead owner still holds), an adopt line
// documents the hand-off, and the sweep id stops redirecting here: the
// workers it sent away are now welcome.
func (h *Hub) Adopt(spec sweep.Spec, cells []sweep.Cell, store *sweep.Store, onProgress func(sweep.Progress)) (sweep.DistributedRun, string, error) {
	c, err := recoverCoordinator(spec, cells, store, h.cfg, h.reg, &h.counters, onProgress)
	if err != nil || c == nil {
		return nil, "", err
	}
	c.journalAdopt()
	h.counters.SweepsAdopted.Inc()
	h.mu.Lock()
	delete(h.redirects, c.ID())
	h.mu.Unlock()
	h.register(c)
	return c, c.ID(), nil
}

// redirectFor reports where a sweep this server declined to recover
// lives now.
func (h *Hub) redirectFor(sweepID string) (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	url, ok := h.redirects[sweepID]
	return url, ok
}

// anyRedirect returns one known foreign owner, for idle lease polls:
// a worker with nothing to do here may find the sweep it used to
// serve over there.
func (h *Hub) anyRedirect() (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, url := range h.redirects {
		return url, true
	}
	return "", false
}

// Recover implements sweep.Recoverer: it rebuilds the coordinator for
// one crashed sweep directory from the journal co-located with the
// store and resumes serving its leases under the original sweep id,
// so workers that survived the outage keep heartbeating the lease ids
// they hold. (nil, "", nil) means the directory needs no recovery —
// no journal, or the journaled sweep already reached a terminal
// state.
func (h *Hub) Recover(spec sweep.Spec, cells []sweep.Cell, store *sweep.Store, onProgress func(sweep.Progress)) (sweep.DistributedRun, string, error) {
	c, err := recoverCoordinator(spec, cells, store, h.cfg, h.reg, &h.counters, onProgress)
	if err != nil || c == nil {
		return nil, "", err
	}
	h.register(c)
	return c, c.ID(), nil
}

// register serves a coordinator's leases until it finishes. Held
// lease polls wake when it arrives, when one of its shards returns to
// pending, and when it finishes.
func (h *Hub) register(c *Coordinator) {
	id := c.ID()
	c.mu.Lock()
	c.wake = h.signal
	c.mu.Unlock()
	h.mu.Lock()
	h.coords[id] = c
	h.order = append(h.order, id)
	h.mu.Unlock()
	h.signal()
	go func() {
		<-c.Done()
		h.mu.Lock()
		delete(h.coords, id)
		for i, cid := range h.order {
			if cid == id {
				h.order = append(h.order[:i], h.order[i+1:]...)
				break
			}
		}
		h.mu.Unlock()
		h.signal()
	}()
}

// get returns the live coordinator for a sweep id.
func (h *Hub) get(id string) (*Coordinator, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.coords[id]
	return c, ok
}

// list snapshots the live coordinators in registration order.
func (h *Hub) list() []*Coordinator {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Coordinator, 0, len(h.order))
	for _, id := range h.order {
		if c, ok := h.coords[id]; ok {
			out = append(out, c)
		}
	}
	return out
}

// lease scans the live coordinators in order for a pending shard the
// worker is capable of running. active reports whether any coordinator
// exists at all, and starved that every denial was a capability
// mismatch — workers use the distinctions to tell "retry soon"
// (shards merely leased out) from "nothing I can ever serve right
// now" (counts toward -idle-exit) from "nothing to do". The poll
// lands in the fleet registry once — every sweep's starvation
// accounting reads the same entry, so a worker granted a shard here
// is still a live capability everywhere else (busy is not gone). A
// poll counts as starved only when the whole scan ends empty with at
// least one constraint denial and no merely-busy sweep — a worker
// served by sweep B is not starved just because sweep A's shards need
// more than it has.
//
// A poll that finds nothing is held for up to wait (see hold) unless
// it is about to be redirected, then scanned once more. The worker is
// observed before the hold, so a waiting worker stays listed.
func (h *Hub) lease(ctx context.Context, w WorkerID, wait time.Duration) (l Lease, ok, active, starved bool) {
	h.reg.observe(w, time.Now())
	wake := h.changes()
	l, ok, n, busy, starvedOf := h.scan(w)
	if !ok && wait > 0 {
		if _, redirect := h.anyRedirect(); n > 0 || !redirect {
			h.hold(ctx, wake, wait)
			l, ok, n, busy, starvedOf = h.scan(w)
		}
	}
	if !ok && len(starvedOf) > 0 {
		// One denied poll is one starved lease, however many sweeps
		// were constrained; each of them still refreshes its status.
		h.counters.LeasesStarved.Inc()
		for _, c := range starvedOf {
			c.refreshStarved()
		}
	}
	return l, ok, n > 0, !ok && !busy && len(starvedOf) > 0
}

// scan offers the worker each live coordinator's shards in order. n
// counts the coordinators, busy reports a denial without a constraint,
// and starvedOf lists the sweeps that denied by constraint.
func (h *Hub) scan(w WorkerID) (l Lease, ok bool, n int, busy bool, starvedOf []*Coordinator) {
	coords := h.list()
	for _, c := range coords {
		g, granted, constrained := c.leaseScan(w)
		if granted {
			return g, true, len(coords), busy, starvedOf
		}
		if constrained {
			starvedOf = append(starvedOf, c)
		} else {
			// Denied without a constraint: the sweep's remaining shards
			// are leased out (or parked) and may come back — retrying
			// is meaningful, so the worker is not starved.
			busy = true
		}
	}
	return Lease{}, false, len(coords), busy, starvedOf
}

// hold parks an empty lease poll for at most min(wait, TTL/3) — short
// enough that the worker's registry entry stays fresh. It returns
// early on a hub change signal, at the earliest live lease's expiry
// (expiry is lazy, so nothing else would announce that shard), when
// the request ends, or when the hub closes.
func (h *Hub) hold(ctx context.Context, wake <-chan struct{}, wait time.Duration) {
	wait = min(wait, h.cfg.ttl()/3)
	for _, c := range h.list() {
		if exp, ok := c.nextExpiry(); ok {
			// expireLocked reclaims strictly after the deadline.
			wait = min(wait, time.Until(exp)+time.Millisecond)
		}
	}
	if wait <= 0 {
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-wake:
	case <-t.C:
	case <-ctx.Done():
	case <-h.closed:
	}
}

// HubMetrics is the hub's /metrics payload: the shared coordinator
// counters (field names come from CoordSnapshot's JSON tags) plus the
// number of live distributed sweeps.
type HubMetrics struct {
	Active int `json:"active"`
	metrics.CoordSnapshot
}

// MetricsSnapshot reports the coordinator counters plus the number of
// live distributed sweeps (for /metrics and /healthz).
func (h *Hub) MetricsSnapshot() HubMetrics {
	h.mu.Lock()
	active := len(h.coords)
	h.mu.Unlock()
	return HubMetrics{Active: active, CoordSnapshot: h.counters.Snapshot()}
}

// WriteProm emits the coordinator counters in Prometheus text format.
// Metric names are coord_<field> with the CoordSnapshot JSON tags as
// field names, matching the JSON /metrics payload one-for-one.
func (h *Hub) WriteProm(p *metrics.PromWriter) {
	m := h.MetricsSnapshot()
	p.Gauge("coord_active", "Live distributed sweeps on this server.", float64(m.Active))
	p.Counter("coord_leases_granted", "Shard leases granted to workers.", m.LeasesGranted)
	p.Counter("coord_leases_affine", "Leases steered to a worker that already held the shard's bench.", m.LeasesAffine)
	p.Counter("coord_leases_expired", "Leases expired after missed heartbeats.", m.LeasesExpired)
	p.Counter("coord_shards_reassigned", "Shards re-queued after lease expiry.", m.ShardsReassigned)
	p.Counter("coord_shards_completed", "Shards acked complete.", m.ShardsCompleted)
	p.Counter("coord_records_merged", "Worker records merged into canonical stores.", m.RecordsMerged)
	p.Counter("coord_records_deduped", "Worker records dropped as duplicates.", m.RecordsDeduped)
	p.Counter("coord_stale_acks", "Completes or heartbeats from expired leases.", m.StaleAcks)
	p.Counter("coord_leases_starved", "Lease polls denied for lack of matching shards.", m.LeasesStarved)
	p.Counter("coord_admin_expired", "Leases force-expired by an operator.", m.AdminExpired)
	p.Counter("coord_shards_quarantined", "Shards quarantined by an operator.", m.ShardsQuarantined)
	p.Counter("coord_shards_unquarantined", "Shards released from quarantine.", m.ShardsUnquarantined)
	p.Counter("coord_journal_entries", "Journal entries appended.", m.JournalEntries)
	p.Counter("coord_journal_replayed", "Journal entries replayed on recovery.", m.JournalReplayed)
	p.Counter("coord_journal_compactions", "Journal compaction rewrites.", m.JournalCompactions)
	p.Counter("coord_sweeps_recovered", "Sweeps reconstructed after a restart.", m.SweepsRecovered)
	p.Counter("coord_leases_recovered", "Leases restored still live after a restart.", m.LeasesRecovered)
	p.Counter("coord_sweeps_adopted", "Orphaned sweeps adopted from dead peers.", m.SweepsAdopted)
	p.Counter("coord_redirects_served", "Worker requests redirected to a sweep's owner.", m.RedirectsServed)
}

// Lease statuses on the wire.
const (
	statusShard = "shard" // a lease was granted
	statusRetry = "retry" // work exists but every shard is leased out
	// statusStarved: pending work exists but none of it matches this
	// worker's tags/size hints. Workers treat it like idle for
	// -idle-exit purposes — only a differently-equipped worker can
	// unblock the remaining shards — while still polling, in case
	// unconstrained work frees up.
	statusStarved = "starved"
	statusIdle    = "idle" // no distributed sweep is live
	statusOK      = "ok"
	statusStale   = "stale" // lease no longer held; abandon the shard
	// statusRedirect: the sweep lives on a peer server now (this one
	// declined to recover a journal the peer owns, or the peer adopted
	// it). The response's url names the new coordinator; workers switch
	// their base URL and retry the same request there — a heartbeat or
	// complete mid-shard carries on against the adopter without
	// dropping a single record.
	statusRedirect = "redirect"
)

type leaseRequest struct {
	Worker string `json:"worker"`
	// Tags advertises the worker's capabilities; shards whose spec
	// requires tags outside this set are never granted to it.
	Tags []string `json:"tags,omitempty"`
	// MaxCells caps how many cells the worker accepts per lease
	// (0 = unlimited) — the resource hint of a small host.
	MaxCells int `json:"max_cells,omitempty"`
	// WaitMS is how long the hub may hold a poll that finds no shard
	// (0 = answer at once).
	WaitMS int64 `json:"wait_ms,omitempty"`
}

type leaseResponse struct {
	Status  string      `json:"status"`
	Sweep   string      `json:"sweep,omitempty"`
	Shard   int         `json:"shard,omitempty"`
	Indexes []int       `json:"indexes,omitempty"`
	Spec    *sweep.Spec `json:"spec,omitempty"`
	TTLMS   int64       `json:"ttl_ms,omitempty"`
	// URL is where the worker should go instead (status "redirect").
	URL string `json:"url,omitempty"`
	// Peer advertises a sibling server operating the same sweep
	// directory; workers fold it into their base-URL rotation so they
	// already know the fallback when this server dies.
	Peer string `json:"peer,omitempty"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
	Sweep  string `json:"sweep"`
	Shard  int    `json:"shard"`
	// Tags/MaxCells ride along so a busy worker (heartbeating, not
	// polling) still counts as a live capability for starvation
	// accounting.
	Tags     []string `json:"tags,omitempty"`
	MaxCells int      `json:"max_cells,omitempty"`
}

type heartbeatResponse struct {
	Status string `json:"status"`
	TTLMS  int64  `json:"ttl_ms,omitempty"`
	// URL is the adopter to re-heartbeat (status "redirect").
	URL string `json:"url,omitempty"`
}

type completeRequest struct {
	Worker  string             `json:"worker"`
	Sweep   string             `json:"sweep"`
	Shard   int                `json:"shard"`
	Records []sweep.CellRecord `json:"records"`
}

type completeResponse struct {
	Status  string `json:"status"`
	Merged  int    `json:"merged"`
	Skipped int    `json:"skipped"`
	// URL is the adopter to re-upload to (status "redirect") — the
	// records belong there, not in the bin.
	URL string `json:"url,omitempty"`
}

// Handler serves the coordinator API:
//
//	POST /coord/lease              — acquire a shard lease ({"worker": id,
//	                                 "tags": [...], "max_cells": n,
//	                                 "wait_ms": how long an empty poll
//	                                 may be held})
//	POST /coord/heartbeat          — renew a lease; "stale" means abandon
//	POST /coord/complete           — upload a shard's records and ack it
//	POST /coord/adopt              — adopt orphaned sweeps from a dead peer
//	GET  /coord/status             — shard tables of every live sweep
//	POST /coord/admin/expire       — force-expire a lease ({"sweep", "shard"})
//	POST /coord/admin/quarantine   — park a poisonous shard
//	POST /coord/admin/unquarantine — release a parked shard
//	GET  /coord/admin/leases       — live lease tables (ages, tags, renews)
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /coord/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if err := decodeBody(r, maxControlBytes, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if req.Worker == "" {
			httpError(w, http.StatusBadRequest, errors.New("coord: lease needs a worker name"))
			return
		}
		tags, err := sweep.NormalizeTags(req.Tags)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("coord: %w", err))
			return
		}
		wait := time.Duration(req.WaitMS) * time.Millisecond
		l, ok, active, starved := h.lease(r.Context(), WorkerID{Name: req.Worker, Tags: tags, MaxCells: req.MaxCells}, wait)
		var resp leaseResponse
		switch {
		case ok:
			resp = leaseResponse{
				Status:  statusShard,
				Sweep:   l.Sweep,
				Shard:   l.Shard,
				Indexes: l.Indexes,
				Spec:    &l.Spec,
				TTLMS:   l.TTL.Milliseconds(),
			}
		case starved:
			resp = leaseResponse{Status: statusStarved}
		case active:
			resp = leaseResponse{Status: statusRetry}
		default:
			resp = leaseResponse{Status: statusIdle}
			// Nothing live here, but a sweep this server declined to
			// recover is live on its owner: point the idle worker there
			// instead of letting it poll an empty hub forever.
			if url, found := h.anyRedirect(); found {
				resp = leaseResponse{Status: statusRedirect, URL: url}
				h.counters.RedirectsServed.Inc()
			}
		}
		// Every answer carries the configured sibling, so a fleet pointed
		// at one server alone learns its failover target for free.
		resp.Peer = h.cfg.Peer
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /coord/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if err := decodeBody(r, maxControlBytes, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		tags, terr := sweep.NormalizeTags(req.Tags)
		if terr != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("coord: %w", terr))
			return
		}
		wid := WorkerID{Name: req.Worker, Tags: tags, MaxCells: req.MaxCells}
		// A heartbeating worker is alive for every sweep's starvation
		// accounting, not just the one it is busy on — one registry
		// write covers them all (and keeps the worker visible even
		// when the sweep is already gone).
		h.reg.observe(wid, time.Now())
		c, ok := h.get(req.Sweep)
		if !ok {
			// Not live here — but if the sweep's journal named another
			// owner, "stale" would be a lie that costs the worker its
			// shard. Send it to the server that still honours the lease.
			if url, found := h.redirectFor(req.Sweep); found {
				h.counters.RedirectsServed.Inc()
				writeJSON(w, http.StatusOK, heartbeatResponse{Status: statusRedirect, URL: url})
				return
			}
			writeJSON(w, http.StatusOK, heartbeatResponse{Status: statusStale})
			return
		}
		if !c.Heartbeat(wid, req.Shard) {
			writeJSON(w, http.StatusOK, heartbeatResponse{Status: statusStale})
			return
		}
		writeJSON(w, http.StatusOK, heartbeatResponse{Status: statusOK, TTLMS: h.cfg.ttl().Milliseconds()})
	})

	mux.HandleFunc("POST /coord/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if err := decodeBody(r, maxCompleteBytes, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		c, ok := h.get(req.Sweep)
		if !ok {
			// A sweep living on a peer gets its upload redirected — the
			// records are real work the adopter's store wants.
			if url, found := h.redirectFor(req.Sweep); found {
				h.counters.RedirectsServed.Inc()
				writeJSON(w, http.StatusOK, completeResponse{Status: statusRedirect, URL: url, Skipped: len(req.Records)})
				return
			}
			// The sweep finished or was cancelled; the records have
			// nowhere to go, which is fine — their cells are either
			// already stored or intentionally dropped.
			writeJSON(w, http.StatusOK, completeResponse{Status: statusStale, Skipped: len(req.Records)})
			return
		}
		merged, skipped, err := c.Complete(req.Worker, req.Shard, req.Records)
		if errors.Is(err, ErrStale) {
			writeJSON(w, http.StatusOK, completeResponse{Status: statusStale, Skipped: len(req.Records)})
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, completeResponse{Status: statusOK, Merged: merged, Skipped: skipped})
	})

	mux.HandleFunc("GET /coord/status", func(w http.ResponseWriter, r *http.Request) {
		coords := h.list()
		out := make([]Snapshot, 0, len(coords))
		for _, c := range coords {
			out = append(out, c.Snapshot())
		}
		writeJSON(w, http.StatusOK, struct {
			Sweeps   []Snapshot `json:"sweeps"`
			Counters HubMetrics `json:"counters"`
		}{out, h.MetricsSnapshot()})
	})

	// Admin actions share one shape: resolve the sweep, apply, answer
	// ok or surface the refusal as a 409 (the shard exists but is in
	// the wrong state) so scripted operators can tell "retry won't
	// help" from a typo'd sweep id (404).
	adminAction := func(act func(*Coordinator, int) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req adminRequest
			if err := decodeBody(r, maxControlBytes, &req); err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			// Shard is a pointer so an absent field is a 400, not a
			// silent action against shard 0 — strict decoding rejects
			// unknown fields but cannot catch missing ones.
			if req.Sweep == "" || req.Shard == nil {
				httpError(w, http.StatusBadRequest, errors.New("coord: admin request needs sweep and shard"))
				return
			}
			c, ok := h.get(req.Sweep)
			if !ok {
				httpError(w, http.StatusNotFound, fmt.Errorf("coord: no live sweep %q", req.Sweep))
				return
			}
			if err := act(c, *req.Shard); err != nil {
				httpError(w, http.StatusConflict, err)
				return
			}
			writeJSON(w, http.StatusOK, adminResponse{Status: statusOK, Sweep: c.ID(), Shard: *req.Shard})
		}
	}
	mux.HandleFunc("POST /coord/adopt", func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		adopt := h.adoptFunc
		h.mu.Unlock()
		if adopt == nil {
			httpError(w, http.StatusNotImplemented, errors.New("coord: this server has no sweep manager to adopt with"))
			return
		}
		n, err := adopt()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Status  string `json:"status"`
			Adopted int    `json:"adopted"`
		}{statusOK, n})
	})
	mux.HandleFunc("POST /coord/admin/expire", adminAction((*Coordinator).AdminExpire))
	mux.HandleFunc("POST /coord/admin/quarantine", adminAction((*Coordinator).Quarantine))
	mux.HandleFunc("POST /coord/admin/unquarantine", adminAction((*Coordinator).Unquarantine))
	mux.HandleFunc("GET /coord/admin/leases", func(w http.ResponseWriter, r *http.Request) {
		coords := h.list()
		out := make([]LeaseTable, 0, len(coords))
		for _, c := range coords {
			out = append(out, c.LeaseTable())
		}
		// The fleet rides along at the top level so workers that are
		// registered but hold no lease — idle tagged workers between
		// polls, or a fleet polling a hub with no live sweep — stay
		// visible to operators.
		writeJSON(w, http.StatusOK, struct {
			Sweeps  []LeaseTable `json:"sweeps"`
			Workers []WorkerSeen `json:"workers,omitempty"`
		}{out, h.reg.snapshot(time.Now())})
	})
	return mux
}

type adminRequest struct {
	Sweep string `json:"sweep"`
	Shard *int   `json:"shard"`
}

type adminResponse struct {
	Status string `json:"status"`
	Sweep  string `json:"sweep"`
	Shard  int    `json:"shard"`
}

func decodeBody(r *http.Request, limit int64, v any) error {
	if err := httpx.DecodeStrict(r, limit, v); err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) { httpx.WriteJSON(w, code, v) }

func httpError(w http.ResponseWriter, code int, err error) { httpx.Error(w, code, err) }

// leaseFromResponse converts a wire lease back to the internal form.
func leaseFromResponse(resp leaseResponse) (Lease, error) {
	if resp.Spec == nil {
		return Lease{}, errors.New("coord: lease response missing spec")
	}
	return Lease{
		Sweep:   resp.Sweep,
		Shard:   resp.Shard,
		Indexes: resp.Indexes,
		Spec:    *resp.Spec,
		TTL:     time.Duration(resp.TTLMS) * time.Millisecond,
	}, nil
}
