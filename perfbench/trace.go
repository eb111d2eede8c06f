package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/sm"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sampleEvery is the controller-call timing sample: every call is
// counted, one in sampleEvery is timed, so the clock reads stay off
// the per-cycle path.
const sampleEvery = 64

// callProbe counts and samples one controller's hook calls. Each GPU
// runs on one goroutine, so a probe needs no lock until it is merged.
type callProbe struct {
	picks, cycles, vtaHits    uint64
	pickSamples, cycleSamples uint64
	pickNS, cycleNS           int64
}

func (p *callProbe) add(o *callProbe) {
	p.picks += o.picks
	p.cycles += o.cycles
	p.vtaHits += o.vtaHits
	p.pickSamples += o.pickSamples
	p.cycleSamples += o.cycleSamples
	p.pickNS += o.pickNS
	p.cycleNS += o.cycleNS
}

// tracedController wraps a scheduler's sm.Controller.
type tracedController struct {
	sm.Controller
	p *callProbe
}

func (t *tracedController) Pick(g *sm.GPU, now uint64) int {
	t.p.picks++
	if t.p.picks%sampleEvery != 0 {
		return t.Controller.Pick(g, now)
	}
	start := time.Now()
	w := t.Controller.Pick(g, now)
	t.p.pickNS += int64(time.Since(start))
	t.p.pickSamples++
	return w
}

func (t *tracedController) OnCycle(g *sm.GPU, now uint64) {
	t.p.cycles++
	if t.p.cycles%sampleEvery != 0 {
		t.Controller.OnCycle(g, now)
		return
	}
	start := time.Now()
	t.Controller.OnCycle(g, now)
	t.p.cycleNS += int64(time.Since(start))
	t.p.cycleSamples++
}

func (t *tracedController) OnVTAHit(g *sm.GPU, now uint64, interfered, interferer int, atShared bool) {
	t.p.vtaHits++
	t.Controller.OnVTAHit(g, now, interfered, interferer, atShared)
}

// simTotals sums the simulator-side counters over the traced cells.
type simTotals struct {
	cells                                     int
	cycles, instructions                      uint64
	structStalls, deadlockFrees               uint64
	l1Accesses, l1Hits, vtaProbes, vtaHits    uint64
	sharedAccesses, sharedHits                uint64
	l2Accesses, l2Misses                      uint64
	dramReads, dramWrites, rowHits, rowMisses uint64
	sched, core                               callProbe // sched-package and CIAO controllers
	kernel, runOne, exec, encode              time.Duration
}

// tracer is the traced service.Config.Run: it does what
// service.Execute does for a "run" spec, through harness.RunOne with a
// wrapped controller, and times the JSON encoding on its own.
type tracer struct {
	mu      sync.Mutex
	sim     simTotals
	started map[string]time.Time     // key → when the run function began
	inRun   map[string]time.Duration // key → time inside the run function
}

func newTracer() *tracer {
	return &tracer{started: map[string]time.Time{}, inRun: map[string]time.Duration{}}
}

func (t *tracer) run(spec service.Spec) ([]byte, error) {
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Experiment != service.ExpRun {
		return nil, fmt.Errorf("traced run: experiment %q is not a cell", spec.Experiment)
	}
	f, err := harness.SchedulerByName(spec.Sched)
	if err != nil {
		return nil, err
	}
	w, err := workload.ByName(spec.Bench)
	if err != nil {
		return nil, err
	}
	opt := spec.Options.Options()
	if spec.Config != nil {
		opt = spec.Config.Apply(opt)
	}

	// workload.NewKernel is timed on its own call: RunOne builds the
	// kernel internally, where it cannot be timed from outside.
	ks := w
	if opt.InstrPerWarp > 0 {
		ks.InstrPerWarp = opt.InstrPerWarp
	}
	if opt.Seed != 0 {
		ks.Seed = opt.Seed
	}
	kt := time.Now()
	if _, err := workload.NewKernel(ks); err != nil {
		return nil, err
	}
	kernel := time.Since(kt)

	probe := &callProbe{}
	wrapped := f
	wrapped.New = func() sm.Controller { return &tracedController{Controller: f.New(), p: probe} }
	rt := time.Now()
	r, g, err := harness.RunOne(w, wrapped, opt)
	if err != nil {
		return nil, err
	}
	cell := harness.NewCellResult(spec.Bench, r, g.Interference().Total())
	runOne := time.Since(rt)

	et := time.Now()
	payload, err := json.Marshal(cell)
	if err != nil {
		return nil, err
	}
	encode := time.Since(et)
	end := time.Now()

	l1 := g.L1().Stats()
	probes, vtaHits, _ := g.VTA().Stats()
	l2s := g.L2().Stats()
	ds := g.L2().DRAM().Stats()
	key := spec.Key()

	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.sim
	s.cells++
	s.cycles += r.Cycles
	s.instructions += r.Instructions
	s.structStalls += r.StructStalls
	s.deadlockFrees += r.DeadlockFrees
	s.l1Accesses += l1.Accesses
	s.l1Hits += l1.Hits
	s.vtaProbes += probes
	s.vtaHits += vtaHits
	s.sharedAccesses += r.SharedStats.Accesses
	s.sharedHits += r.SharedStats.Hits
	s.l2Accesses += l2s.Accesses
	s.l2Misses += l2s.Misses
	s.dramReads += ds.Reads
	s.dramWrites += ds.Writes
	s.rowHits += ds.RowHits
	s.rowMisses += ds.RowMisses
	if strings.HasPrefix(f.Name, "CIAO") {
		s.core.add(probe)
	} else {
		s.sched.add(probe)
	}
	s.kernel += kernel
	s.runOne += runOne
	s.encode += encode
	s.exec += end.Sub(start) - kernel - encode
	t.started[key] = start
	t.inRun[key] = end.Sub(start)
	return payload, nil
}

// timedSink wraps the sweep's real *sweep.Store.
type timedSink struct {
	sweep.Sink
	mu      sync.Mutex
	appends int
	total   time.Duration
}

func (s *timedSink) Append(rec sweep.CellRecord) error {
	start := time.Now()
	err := s.Sink.Append(rec)
	d := time.Since(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appends++
	s.total += d
	return err
}

// phaseTrace is one traced (or untraced twin) pass over a phase.
type phaseTrace struct {
	wall    time.Duration
	tracer  *tracer
	records []sweep.CellRecord
	sink    *timedSink
	run     runStats
	engine  *service.Engine
	// slotWait sums, over computed /run calls, the time from the call
	// into Engine.Run to the start of the run function.
	slotWait time.Duration
	coord    *coordTrace
}

// sweepLocal runs the sweep in-process: sweep.Runner over a
// service.Engine with two worker slots, appending to a real store.
func (b *bench) sweepLocal(ctx context.Context, spec sweep.Spec, traced bool, dir string) (phaseTrace, error) {
	pt := phaseTrace{tracer: newTracer()}
	var run service.RunFunc // nil runs service.Execute
	if traced {
		run = pt.tracer.run
	}
	eng := service.NewEngine(service.Config{Workers: 2, Run: run})
	cells, err := spec.Expand()
	if err != nil {
		return pt, err
	}
	store, err := sweep.Create(dir, "trace", spec, len(cells))
	if err != nil {
		return pt, err
	}
	pt.sink = &timedSink{Sink: store}
	var sink sweep.Sink = store
	if traced {
		sink = pt.sink
	}
	runner := sweep.Runner{Engine: eng, Store: sink, Parallelism: 4}
	t0 := time.Now()
	_, err = runner.Run(ctx, cells)
	pt.wall = time.Since(t0)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return pt, err
	}
	pt.records, _, err = sweep.ReadRecords(dir)
	return pt, err
}

// coordTransport times the worker's coordinator round trips while a
// sweep is active and tracks when the worker holds a shard.
type coordTransport struct {
	base   http.RoundTripper
	active *atomic.Bool

	mu         sync.Mutex
	rtt        map[string][]float64 // path → round trips, ms
	emptyPolls int
	busy       time.Duration
	busySince  time.Time
}

func (c *coordTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil || !c.active.Load() {
		return resp, err
	}
	path := req.URL.Path
	var lease struct {
		Status string `json:"status"`
	}
	if path == "/coord/lease" {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		_ = json.Unmarshal(body, &lease) // an unreadable answer counts as an empty poll
	}
	end := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rtt[path] = append(c.rtt[path], ms(end.Sub(start)))
	switch path {
	case "/coord/lease":
		if lease.Status == "shard" {
			c.busySince = end
		} else {
			c.emptyPolls++
		}
	case "/coord/complete":
		if !c.busySince.IsZero() {
			c.busy += end.Sub(c.busySince)
			c.busySince = time.Time{}
		}
	}
	return resp, nil
}

// coordTrace is the coordinator layer of one distributed pass.
type coordTrace struct {
	transports []*coordTransport
	counters   coord.HubMetrics // the coordinator's own counters, from /metrics
}

// sweepDistributed runs the sweep through a real ciaoserve as
// coordinator, with two in-process workers (coord.RunWorker) whose
// engines and HTTP clients carry the tracing wrappers. The coordinator
// runs with the same flags as in the timed workload, so its default
// lease TTL too.
func (b *bench) sweepDistributed(ctx context.Context, spec sweep.Spec, traced bool, dir string) (phaseTrace, error) {
	pt := phaseTrace{tracer: newTracer(), coord: &coordTrace{}}
	f, err := b.startFleet(ctx, dir, 0)
	if err != nil {
		return pt, err
	}
	defer f.stop()

	var active atomic.Bool
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	for i := 0; i < 2; i++ {
		var run service.RunFunc
		client := &http.Client{Timeout: 30 * time.Second}
		if traced {
			run = pt.tracer.run
			tr := &coordTransport{base: http.DefaultTransport, active: &active, rtt: map[string][]float64{}}
			pt.coord.transports = append(pt.coord.transports, tr)
			client.Transport = tr
		}
		cfg := coord.WorkerConfig{
			URL:    f.base,
			Name:   fmt.Sprintf("trace-w%d", i),
			Engine: service.NewEngine(service.Config{Workers: 1, Run: run}),
			Client: client,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = coord.RunWorker(wctx, cfg) // returns the cancellation
		}()
	}
	probe := &http.Client{Timeout: 2 * time.Second}
	if err := waitFor(ctx, f.procs[0], func() bool {
		var out struct {
			Workers []json.RawMessage `json:"workers"`
		}
		return getJSON(probe, f.base+"/coord/admin/leases", &out) == nil && len(out.Workers) >= 2
	}); err != nil {
		return pt, err
	}
	active.Store(true)
	sw, err := runSweep(ctx, &http.Client{}, f.base, spec)
	active.Store(false)
	if err != nil {
		return pt, err
	}
	pt.wall, pt.records = sw.wall, sw.records
	var m struct {
		Extra struct {
			Coord json.RawMessage `json:"coord"`
		} `json:"extra"`
	}
	if err := getJSON(probe, f.base+"/metrics", &m); err != nil {
		return pt, err
	}
	return pt, json.Unmarshal(m.Extra.Coord, &pt.coord.counters)
}

// runInProcess plays the /run script against an in-process
// service.Engine, calling Engine.Run directly.
func runInProcess(ctx context.Context, script runScript, traced bool, rep *report) phaseTrace {
	pt := phaseTrace{tracer: newTracer()}
	var run service.RunFunc
	if traced {
		run = pt.tracer.run
	}
	eng := service.NewEngine(service.Config{Workers: 2, Run: run})
	pt.engine = eng
	var mu sync.Mutex
	send := func(_ context.Context, spec service.Spec) ([]byte, string, error) {
		entry := time.Now()
		payload, source, err := eng.Run(spec)
		if err == nil && source == service.SourceComputed && traced {
			key := spec.Key()
			pt.tracer.mu.Lock()
			wait := pt.tracer.started[key].Sub(entry)
			pt.tracer.mu.Unlock()
			mu.Lock()
			pt.slotWait += wait
			mu.Unlock()
		}
		return payload, string(source), err
	}
	pt.run = runPhase(ctx, script, send, rep)
	pt.wall = pt.run.wall
	return pt
}

// serverRunP50 plays the /run script against a real ciaoserve and
// reads the server-side p50 of /run from its RED histogram.
func (b *bench) serverRunP50(ctx context.Context, script runScript, dir string, rep *report) (float64, error) {
	f, err := b.startFleet(ctx, dir, 0)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}}
	defer client.CloseIdleConnections()
	runPhase(ctx, script, httpRun(client, f.base), rep)
	var m struct {
		HTTP map[string]struct {
			P50MS float64 `json:"p50_ms"`
		} `json:"http"`
	}
	if err := getJSON(client, f.base+"/metrics", &m); err != nil {
		return 0, err
	}
	return m.HTTP["/run"].P50MS, nil
}

// profileShares runs fn under the CPU profiler and folds the profile's
// flat (self) time by package with go tool pprof.
func (b *bench) profileShares(dir string, fn func() error) (map[string]float64, error) {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-trim=false", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldByPackage(string(out)), nil
}

// foldByPackage sums pprof -top's flat% column by layer: the
// repro/internal package name, or "runtime" for the Go runtime (GC and
// scheduler). Shares are fractions of all samples.
func foldByPackage(top string) map[string]float64 {
	shares := map[string]float64{}
	for _, line := range strings.Split(top, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 6 || !strings.HasSuffix(fields[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			continue
		}
		if layer := layerOf(strings.Join(fields[5:], " ")); layer != "" {
			shares[layer] += pct / 100
		}
	}
	return shares
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn[:slash+1]
	rest := fn[slash+1:]
	if dot := strings.Index(rest, "."); dot >= 0 {
		pkg += rest[:dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	}
	return ""
}
