package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/sweep"
)

// roundStats is one round of a timed run.
type roundStats struct {
	setup  time.Duration
	steal  float64 // share of the host's CPU time stolen during the round
	rssMB  float64
	sweep  *sweepStats
	cycles uint64 // simulated cycles of the sweep's cells
	run    runStats
}

// timed repeats rounds until the time budget is spent. Each round
// starts a fresh fleet on an empty directory, so nothing carries over
// from an earlier round's cache or store.
//
// The host is a shared virtual machine: while the hypervisor steals
// CPU time every wall-clock figure stretches with it. The metrics
// therefore come from the quieter half of the rounds, ranked by the
// share of CPU time stolen during each.
func (b *bench) timed(ctx context.Context, w workloadDef, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport()
	rng := newRNG(seed)
	deck := newCellDeck(w.benches(), w.instr, rng)
	var rounds []roundStats
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < budget; k++ {
		r, err := b.round(ctx, w, k, rng, deck, rep)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		rounds = append(rounds, r)
	}

	quiet := append([]roundStats(nil), rounds...)
	sort.SliceStable(quiet, func(i, j int) bool { return quiet[i].steal < quiet[j].steal })
	quiet = quiet[:(len(quiet)+1)/2]

	var setup, rss, cells, mcycles, reqs []float64
	var runs runStats
	for _, r := range quiet {
		setup = append(setup, r.setup.Seconds())
		rss = append(rss, r.rssMB)
		reqs = append(reqs, float64(r.run.ops)/r.run.wall.Seconds())
		if r.sweep != nil {
			secs := r.sweep.wall.Seconds()
			cells = append(cells, float64(len(r.sweep.records))/secs)
			mcycles = append(mcycles, float64(r.cycles)/1e6/secs)
		} else {
			// Without a sweep the cells are the /run requests that
			// simulated.
			secs := r.run.wall.Seconds()
			cells = append(cells, float64(len(r.run.cold))/secs)
			mcycles = append(mcycles, float64(r.run.cycles)/1e6/secs)
		}
		runs.add(r.run)
	}
	rep.set("setup_s", "s", median(setup))
	rep.set("cells_per_s", "1/s", median(cells))
	rep.set("sim_mcycles_per_s", "Mcycles/s", median(mcycles))
	rep.set("max_rss_mb", "MB", median(rss))
	rep.set("run_hit_p50_ms", "ms", quantile(runs.hit, 0.5))
	rep.set("run_cold_p50_ms", "ms", quantile(runs.cold, 0.5))
	// The /run request rate and the p90s are printed but not reported
	// as metrics: on the shared 2-vCPU host their run-to-run spread
	// exceeded the largest bound BENCHMARK.json allows (NOTES.md).
	rep.note("run_req_per_s=%.4f", median(reqs))
	var steals []string
	for _, r := range rounds {
		steals = append(steals, fmt.Sprintf("%.3f", r.steal))
	}
	rep.note("workload=%s seed=%d rounds=%d used=%d wall=%.1fs steal_by_round=%s", w.name, seed,
		len(rounds), len(quiet), time.Since(start).Seconds(), strings.Join(steals, ","))
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"hit", runs.hit}, {"cold", runs.cold}, {"coalesced", runs.coalesced}} {
		rep.note("run_%s_latency_ms n=%d p50=%.4f p90=%.4f p99=%.4f", s.name, len(s.xs),
			quantile(s.xs, 0.5), quantile(s.xs, 0.9), quantile(s.xs, 0.99))
	}
	return rep, nil
}

// round runs one fleet from launch to shutdown: set-up, the sweep (if
// the workload has one), then the /run phase.
func (b *bench) round(ctx context.Context, w workloadDef, k int, rng *rand.Rand, deck *cellDeck, rep *report) (roundStats, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("round-%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return roundStats{}, err
	}
	defer os.RemoveAll(dir)
	var spec *sweep.Spec
	if w.hasSweep() {
		s := w.sweepSpec(rng)
		spec = &s
	}
	script := newRunScript(deck, w.runOps)

	steal0, total0, err := hostSteal()
	if err != nil {
		return roundStats{}, err
	}
	workers := 0
	if w.distributed {
		workers = 2
	}
	f, err := b.startFleet(ctx, dir, workers)
	if err != nil {
		return roundStats{}, err
	}
	defer f.stop()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}}
	defer client.CloseIdleConnections()

	r := roundStats{setup: f.setup}
	wantSims := script.distinctKeys()
	if spec != nil {
		sw, err := runSweep(ctx, client, f.base, *spec)
		if err != nil {
			rep.fail("%v", err)
		}
		var digest string
		digest, r.cycles = checkSweep(*spec, sw.records, rep)
		if digest != w.pin {
			rep.fail("%s digest %s, want %s", w.name, digest, w.pin)
		}
		if k == 0 {
			rep.note("sweep_digest=%s", digest)
			for _, line := range ipcVsGTO(sw.records) {
				rep.note("%s", line)
			}
		}
		r.sweep = &sw
		if !w.distributed {
			wantSims += len(sw.records)
		}
	}
	r.run = runPhase(ctx, script, httpRun(client, f.base), rep)

	var health struct {
		Metrics struct {
			Simulations uint64 `json:"simulations"`
		} `json:"metrics"`
	}
	if err := getJSON(client, f.base+"/healthz", &health); err != nil {
		return roundStats{}, err
	}
	if health.Metrics.Simulations != uint64(wantSims) {
		rep.fail("round %d: server ran %d simulations, want %d (one per distinct key)", k, health.Metrics.Simulations, wantSims)
	}
	if r.rssMB, err = f.peakRSSMB(); err != nil {
		return roundStats{}, err
	}
	steal1, total1, err := hostSteal()
	if err != nil {
		return roundStats{}, err
	}
	if total1 > total0 {
		r.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return r, nil
}
