package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/sweep"
)

// WorkerConfig shapes one worker loop.
type WorkerConfig struct {
	// URL is the coordinator base URL (http://host:port), or a
	// comma-separated list of them for a federated pair sharing one
	// sweep directory. The worker talks to one at a time, rotating to
	// the next on transport errors and following "redirect" answers,
	// so a coordinator dying mid-shard hands the worker to the peer
	// that adopts the sweep.
	URL string
	// Name identifies the worker in leases (default hostname-pid).
	Name string
	// Tags advertises this worker's capabilities ("bigmem", "gpu");
	// the coordinator routes shards whose spec requires tags only to
	// workers advertising all of them.
	Tags []string
	// MaxCells caps how many cells this worker accepts per lease
	// (0 = unlimited) — the resource hint of a small host.
	MaxCells int
	// Engine executes the leased cells (required).
	Engine *service.Engine
	// Parallelism bounds concurrently submitted cells per shard
	// (0 = the runner default).
	Parallelism int
	// IdleExit, when positive, makes the worker exit cleanly after the
	// coordinator has reported — for this long — no live sweeps,
	// nothing this worker's capabilities can serve ("starved"), or
	// been unreachable. Zero polls forever — the daemon mode.
	IdleExit time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Logf receives progress lines (default log-less).
	Logf func(format string, args ...any)
}

func (c WorkerConfig) name() string {
	if c.Name != "" {
		return c.Name
	}
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// Lease polling. An empty poll is held by the hub until a shard may be
// leasable, so the worker polls again at once — but never sooner than
// minPollGap after the previous poll began, so a server that answers
// without holding cannot make it spin. leaseWait stays below the
// default client timeout.
const (
	leaseWait  = 20 * time.Second
	minPollGap = 50 * time.Millisecond
)

// backoff is the pause after a transport error or an abandoned shard:
// 500ms with ±25% jitter, so a fleet released by one event (a server
// restart) does not retry in lockstep.
func backoff() time.Duration {
	const d = 500 * time.Millisecond
	return d - d/4 + time.Duration(rand.Int64N(int64(d)/2+1))
}

func (c WorkerConfig) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c WorkerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// RunWorker loops leasing shards from the coordinator and executing
// them through the engine until ctx is cancelled or — with IdleExit
// set — the coordinator stays idle long enough. Each leased shard runs
// through the ordinary sweep.Runner against an in-memory sink, with a
// background heartbeat keeping the lease alive; the collected records
// upload via /coord/complete. A shard whose heartbeat goes stale is
// abandoned mid-run: the coordinator has already re-assigned it.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Engine == nil {
		return errors.New("coord: worker needs an engine")
	}
	tags, err := sweep.NormalizeTags(cfg.Tags)
	if err != nil {
		return err
	}
	bases := splitBases(cfg.URL)
	if len(bases) == 0 {
		return errors.New("coord: worker needs a coordinator URL")
	}
	w := &worker{
		cfg:   cfg,
		name:  cfg.name(),
		tags:  tags,
		bases: bases,
	}
	var idleSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		wait := leaseWait
		if cfg.IdleExit > 0 {
			// Come back in time to notice the idle budget ran out.
			left := cfg.IdleExit
			if !idleSince.IsZero() {
				left -= time.Since(idleSince)
			}
			wait = min(wait, left)
		}
		start := time.Now()
		resp, err := w.lease(ctx, wait)
		if err == nil {
			// Fold any advertised sibling into the rotation now, while
			// this server is still alive to tell us about it.
			w.addPeer(resp.Peer)
		}
		idle := false
		pause := minPollGap - time.Since(start)
		switch {
		case err != nil:
			// Coordinator unreachable: with IdleExit this eventually
			// stops the worker, without it we keep knocking (post has
			// already rotated to the next base, if there is one).
			w.cfg.logf("lease: %v", err)
			idle = true
			pause = backoff()
		case resp.Status == statusRedirect:
			// This server handed the fleet to a peer (it declined to
			// recover a sweep the peer owns). Not idleness — the peer
			// has the work; poll it promptly.
			w.cfg.logf("lease: redirected to %s", resp.URL)
			w.setBase(resp.URL)
		case resp.Status == statusShard:
			l, lerr := leaseFromResponse(resp)
			if lerr != nil {
				w.cfg.logf("lease: %v", lerr)
				idle = true
				break
			}
			idleSince = time.Time{}
			if w.runShard(ctx, l) {
				continue // immediately ask for the next shard
			}
			// The shard was abandoned (stale lease, bad spec, failed
			// upload). Back off: leasing again at HTTP speed would just
			// park every pending shard for a TTL.
			pause = backoff()
		case resp.Status == statusIdle || resp.Status == statusStarved:
			// Starved means pending work exists that this worker can
			// never serve with its tags/size hints: for -idle-exit
			// purposes that is idleness — only a differently-equipped
			// worker can unblock it — though polling continues in case
			// unconstrained work appears.
			idle = true
		}
		if !idle {
			idleSince = time.Time{}
		} else if cfg.IdleExit > 0 {
			if idleSince.IsZero() {
				idleSince = start // the held poll was idle time too
			}
			if time.Since(idleSince) >= cfg.IdleExit {
				w.cfg.logf("idle for %s, exiting", cfg.IdleExit)
				return nil
			}
		}
		if pause > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(pause):
			}
		}
	}
}

type worker struct {
	cfg  WorkerConfig
	name string
	tags []string

	// mu guards the base-URL rotation: the heartbeat goroutine and the
	// shard runner's upload may switch servers concurrently when the
	// sweep is adopted mid-shard.
	mu    sync.Mutex
	bases []string
	cur   int
}

// splitBases parses the comma-separated -worker URL list.
func splitBases(urls string) []string {
	var out []string
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// base returns the coordinator currently being talked to.
func (w *worker) base() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bases[w.cur]
}

// rotate advances to the next known coordinator after a transport
// error — the fast failover path when the current server is simply
// gone and cannot answer a redirect.
func (w *worker) rotate() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.bases) > 1 {
		w.cur = (w.cur + 1) % len(w.bases)
	}
}

// setBase switches to url, adding it to the rotation first if it is
// new — the redirect path.
func (w *worker) setBase(url string) {
	url = strings.TrimRight(url, "/")
	if url == "" {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, b := range w.bases {
		if b == url {
			w.cur = i
			return
		}
	}
	w.bases = append(w.bases, url)
	w.cur = len(w.bases) - 1
}

// addPeer folds a hinted sibling into the rotation without switching
// to it — known-but-unused until the current server stops answering.
func (w *worker) addPeer(url string) {
	url = strings.TrimRight(url, "/")
	if url == "" {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, b := range w.bases {
		if b == url {
			return
		}
	}
	w.bases = append(w.bases, url)
}

// runShard executes one leased shard and uploads its records,
// reporting whether the shard was acked (false = abandoned: the lease
// expires and the shard re-assigns).
func (w *worker) runShard(ctx context.Context, l Lease) bool {
	cells, err := l.Spec.Expand()
	if err != nil {
		// Version skew: this worker cannot expand the coordinator's
		// spec. Abandon the lease (it expires and re-assigns) rather
		// than acking an empty shard and losing its cells.
		w.cfg.logf("shard %s/%d: cannot expand spec: %v", l.Sweep, l.Shard, err)
		return false
	}
	w.cfg.logf("leased shard %s/%d (%d cells)", l.Sweep, l.Shard, len(l.Indexes))

	// Heartbeat until the shard finishes; a stale answer cancels the
	// shard's context so the runner stops submitting cells.
	shardCtx, cancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	stale := false
	go func() {
		defer close(hbDone)
		interval := l.TTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-time.After(interval):
			}
			// Follow up to a few redirects immediately rather than
			// waiting out another interval: the lease TTL is already
			// ticking on the adopter's table, and a mid-shard hand-off
			// must not look like staleness — the adopter recovered this
			// very lease from the journal and is waiting to renew it.
			st, err := w.heartbeat(shardCtx, l)
			for hops := 0; err == nil && st == hbRedirect && hops < 3; hops++ {
				w.cfg.logf("heartbeat %s/%d: sweep moved, re-heartbeating %s", l.Sweep, l.Shard, w.base())
				st, err = w.heartbeat(shardCtx, l)
			}
			if err != nil || st == hbRedirect {
				// Transport trouble (post rotated the base) or a redirect
				// chase that never settled: both are transient — retry on
				// the next tick against whatever base we hold now.
				if err != nil {
					w.cfg.logf("heartbeat %s/%d: %v", l.Sweep, l.Shard, err)
				}
				continue
			}
			if st == hbStale {
				stale = true
				cancel()
				return
			}
		}
	}()

	mem := &sweep.MemStore{}
	runner := &sweep.Runner{
		Engine:      w.cfg.Engine,
		Store:       mem,
		Parallelism: w.cfg.Parallelism,
		Indexes:     l.Indexes,
	}
	final, runErr := runner.Run(shardCtx, cells)
	cancel()
	<-hbDone
	if runErr != nil {
		w.cfg.logf("shard %s/%d: %v", l.Sweep, l.Shard, runErr)
		return false
	}
	if ctx.Err() != nil {
		// Shutting down; the records die with the process.
		w.cfg.logf("shard %s/%d abandoned (shutdown)", l.Sweep, l.Shard)
		return false
	}
	if stale || final.State == sweep.StateCancelled {
		// The lease moved on before the shard finished, but the cells
		// that did finish are real work: upload them — the coordinator's
		// stale-merge path accepts and dedups them, and the re-assignee's
		// lease then excludes those cells. Unlike a routine complete
		// failure (which only costs a lease TTL — the shard re-assigns),
		// records dropped here have no second chance, so the retry
		// budget is deeper before giving up.
		if recs := mem.Records(); len(recs) > 0 {
			if err := w.complete(ctx, l, recs, abandonAttempts); err != nil {
				w.cfg.logf("shard %s/%d abandoned (stale lease); %d partial record(s) DROPPED after %d upload attempts: %v",
					l.Sweep, l.Shard, len(recs), abandonAttempts, err)
			} else {
				w.cfg.logf("shard %s/%d abandoned (stale lease), %d partial record(s) uploaded", l.Sweep, l.Shard, len(recs))
			}
		} else {
			w.cfg.logf("shard %s/%d abandoned (stale lease), nothing to upload", l.Sweep, l.Shard)
		}
		return false
	}
	if err := w.complete(ctx, l, mem.Records(), completeAttempts); err != nil {
		w.cfg.logf("complete %s/%d: %v (lease will expire and re-assign)", l.Sweep, l.Shard, err)
		return false
	}
	w.cfg.logf("completed shard %s/%d: %d done, %d failed", l.Sweep, l.Shard, final.Done, final.Failed)
	return true
}

func (w *worker) lease(ctx context.Context, wait time.Duration) (leaseResponse, error) {
	var resp leaseResponse
	err := w.post(ctx, "/coord/lease", leaseRequest{Worker: w.name, Tags: w.tags, MaxCells: w.cfg.MaxCells, WaitMS: wait.Milliseconds()}, &resp)
	return resp, err
}

// hbStatus is a heartbeat's verdict: the lease is alive, the lease is
// gone, or the sweep now lives on a peer (the base URL has already
// been switched there — heartbeat again).
type hbStatus int

const (
	hbOK hbStatus = iota
	hbStale
	hbRedirect
)

func (w *worker) heartbeat(ctx context.Context, l Lease) (hbStatus, error) {
	var resp heartbeatResponse
	if err := w.post(ctx, "/coord/heartbeat", heartbeatRequest{Worker: w.name, Sweep: l.Sweep, Shard: l.Shard, Tags: w.tags, MaxCells: w.cfg.MaxCells}, &resp); err != nil {
		return hbStale, err
	}
	switch resp.Status {
	case statusOK:
		return hbOK, nil
	case statusRedirect:
		w.setBase(resp.URL)
		return hbRedirect, nil
	default:
		return hbStale, nil
	}
}

// Upload retry budgets. A routine complete failure only costs a lease
// TTL (the shard re-assigns and re-runs elsewhere), so its budget is
// modest; records on an abandoned stale shard have no re-run covering
// the cells that *did* finish cheaply, so that path retries deeper
// before letting them die.
const (
	completeAttempts = 3
	abandonAttempts  = 6
)

// complete uploads the shard's records, retrying transient transport
// errors with exponential backoff — retrying is much cheaper than
// re-simulating the shard elsewhere, and a server mid-restart is back
// within a few seconds.
func (w *worker) complete(ctx context.Context, l Lease, recs []sweep.CellRecord, attempts int) error {
	req := completeRequest{Worker: w.name, Sweep: l.Sweep, Shard: l.Shard, Records: recs}
	backoff := 250 * time.Millisecond
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			w.cfg.logf("complete %s/%d attempt %d/%d: %v (retrying in %s)", l.Sweep, l.Shard, attempt, attempts, err, backoff)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff < 4*time.Second {
				backoff *= 2
			}
		}
		var resp completeResponse
		err = w.post(ctx, "/coord/complete", req, &resp)
		// A redirect is not a failure and costs none of the budget: the
		// sweep was adopted by a peer and the very same upload belongs
		// there. Chase it a bounded number of hops so two confused
		// servers pointing at each other cannot trap the worker.
		for hops := 0; err == nil && resp.Status == statusRedirect && hops < 3; hops++ {
			w.cfg.logf("complete %s/%d: sweep moved, re-uploading to %s", l.Sweep, l.Shard, resp.URL)
			w.setBase(resp.URL)
			resp = completeResponse{}
			err = w.post(ctx, "/coord/complete", req, &resp)
		}
		if err == nil && resp.Status == statusRedirect {
			err = errors.New("coord: complete kept being redirected; retrying")
		}
		if err == nil {
			return nil
		}
	}
	return err
}

func (w *worker) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base()+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.client().Do(req)
	if err != nil {
		// The server may simply be gone (a kill -9 answers no redirect):
		// rotate so the caller's retry — the next poll, heartbeat tick,
		// or upload attempt — knocks on the next known coordinator.
		w.rotate()
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("coord: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
