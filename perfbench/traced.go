package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sweep"
)

// traced runs the workload's first-round inputs in-process with the
// layer wrappers on, beside an untraced twin of the main phase (the
// sweep, or the /run phase for serve-run) that gives the tracing
// overhead and the CPU profile. It reports every per-layer metric; a
// layer the workload does not exercise reads 0.
func (b *bench) traced(ctx context.Context, w workloadDef, seed uint64) (*report, error) {
	rep := newReport()
	rng := newRNG(seed)
	var spec sweep.Spec
	if w.hasSweep() {
		spec = w.sweepSpec(rng)
	}
	script := newRunScript(newCellDeck(w.benches(), w.instr, rng), w.runOps)
	dir := func(name string) (string, error) {
		d := filepath.Join(b.work, name)
		return d, os.MkdirAll(d, 0o755)
	}

	var main, twin phaseTrace
	var shares map[string]float64
	var expand time.Duration
	runTraced := runInProcess(ctx, script, true, rep)
	if w.hasSweep() {
		pass := b.sweepLocal
		if w.distributed {
			pass = b.sweepDistributed
		}
		xt := time.Now()
		if _, err := spec.Expand(); err != nil {
			return nil, err
		}
		expand = time.Since(xt)
		d, err := dir("traced")
		if err != nil {
			return nil, err
		}
		if main, err = pass(ctx, spec, true, d); err != nil {
			return nil, fmt.Errorf("traced sweep: %w", err)
		}
		if d, err = dir("untraced"); err != nil {
			return nil, err
		}
		if shares, err = b.profileShares(b.work, func() error {
			twin, err = pass(ctx, spec, false, d)
			return err
		}); err != nil {
			return nil, fmt.Errorf("untraced sweep: %w", err)
		}
		for _, p := range []struct {
			name string
			recs []sweep.CellRecord
		}{{"traced", main.records}, {"untraced", twin.records}} {
			digest, _ := checkSweep(spec, p.recs, rep)
			if digest != w.pin {
				rep.fail("%s %s digest %s, want %s", p.name, w.name, digest, w.pin)
			}
			rep.note("%s_sweep_digest=%s", p.name, digest)
		}
	} else {
		var err error
		main = runTraced
		if shares, err = b.profileShares(b.work, func() error {
			twin = runInProcess(ctx, script, false, rep)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if sims := runTraced.engine.Simulations(); sims != uint64(script.distinctKeys()) {
		rep.fail("traced /run phase ran %d simulations, want %d", sims, script.distinctKeys())
	}
	d, err := dir("server")
	if err != nil {
		return nil, err
	}
	runServerP50, err := b.serverRunP50(ctx, script, d, rep)
	if err != nil {
		return nil, err
	}

	setSimLayers(rep, main.tracer.sim, shares)
	setServiceLayers(rep, runTraced, runServerP50)
	setSweepLayers(rep, w, main, expand)
	setCoordLayers(rep, main)
	rep.set("runtime.self_share", "share", shares["runtime"])
	rep.set("trace.traced_s", "s", main.wall.Seconds())
	rep.set("trace.untraced_s", "s", twin.wall.Seconds())
	rep.set("trace.overhead_frac", "share", main.wall.Seconds()/twin.wall.Seconds()-1)
	rep.note("workload=%s seed=%d traced main phase %.3fs against %.3fs untraced", w.name, seed, main.wall.Seconds(), twin.wall.Seconds())
	return rep, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func perCall(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

func sampledNS(ns int64, samples uint64) float64 {
	if samples == 0 {
		return 0
	}
	return float64(ns) / float64(samples)
}

func setSimLayers(rep *report, s simTotals, shares map[string]float64) {
	rep.set("cache.l1_accesses", "count", float64(s.l1Accesses))
	rep.set("cache.l1_hit_rate", "share", ratio(s.l1Hits, s.l1Accesses))
	rep.set("cache.vta_probes", "count", float64(s.vtaProbes))
	rep.set("cache.vta_hit_rate", "share", ratio(s.vtaHits, s.vtaProbes))
	rep.set("sharedmem.accesses", "count", float64(s.sharedAccesses))
	rep.set("sharedmem.hit_rate", "share", ratio(s.sharedHits, s.sharedAccesses))
	// l2.Stats().Hits is not reported: it wraps on write misses (see
	// NOTES.md), and Accesses undercounts by one per write miss.
	rep.set("l2.accesses", "count", float64(s.l2Accesses))
	rep.set("l2.misses", "count", float64(s.l2Misses))
	rep.set("dram.reads", "count", float64(s.dramReads))
	rep.set("dram.writes", "count", float64(s.dramWrites))
	rep.set("dram.row_hit_rate", "share", ratio(s.rowHits, s.rowHits+s.rowMisses))
	rep.set("sm.cycles", "count", float64(s.cycles))
	rep.set("sm.instructions", "count", float64(s.instructions))
	rep.set("sm.ns_per_cycle", "ns", ratio(uint64(s.runOne), s.cycles))
	rep.set("sm.struct_stalls", "count", float64(s.structStalls))
	rep.set("sm.deadlock_frees", "count", float64(s.deadlockFrees))
	rep.set("sched.pick_calls", "count", float64(s.sched.picks))
	rep.set("sched.pick_ns", "ns", sampledNS(s.sched.pickNS, s.sched.pickSamples))
	rep.set("sched.oncycle_ns", "ns", sampledNS(s.sched.cycleNS, s.sched.cycleSamples))
	rep.set("core.pick_ns", "ns", sampledNS(s.core.pickNS, s.core.pickSamples))
	rep.set("core.oncycle_ns", "ns", sampledNS(s.core.cycleNS, s.core.cycleSamples))
	rep.set("core.vta_hit_calls", "count", float64(s.core.vtaHits))
	rep.set("workload.kernel_build_ms", "ms", perCall(s.kernel, s.cells))
	rep.set("harness.run_one_ms", "ms", perCall(s.runOne, s.cells))
	for _, layer := range []string{"cache", "memory", "sharedmem", "l2", "dram", "sm", "sched", "core", "workload"} {
		rep.set(layer+".self_share", "share", shares[layer])
	}
}

func setServiceLayers(rep *report, run phaseTrace, serverP50 float64) {
	s := run.tracer.sim
	cache := run.engine.Cache().Stats()
	rep.set("service.execute_ms", "ms", perCall(s.exec, s.cells))
	rep.set("service.encode_ms", "ms", perCall(s.encode, s.cells))
	rep.set("service.slot_wait_ms", "ms", perCall(run.slotWait, s.cells))
	rep.set("service.cache_hits", "count", float64(cache.Hits))
	rep.set("service.cache_misses", "count", float64(cache.Misses))
	rep.set("service.coalesced", "count", float64(len(run.run.coalesced)))
	rep.set("service.simulations", "count", float64(run.engine.Simulations()))
	rep.set("httpx.run_server_ms", "ms", serverP50)
}

// setSweepLayers reports the sweep layer from the traced sweep pass.
// queue_ms is the runner's elapsed_ms (whole milliseconds) minus the
// time inside the run function, per cell; cell_overhead_ms is the
// engine-slot time per cell not spent inside the run function.
func setSweepLayers(rep *report, w workloadDef, main phaseTrace, expand time.Duration) {
	var appends int
	var appendMS, queue, overhead float64
	if w.hasSweep() {
		var inRun time.Duration
		for _, r := range main.records {
			d := main.tracer.inRun[r.Key]
			inRun += d
			queue += float64(r.Elapsed) - ms(d)
		}
		n := float64(len(main.records))
		queue /= n
		overhead = (2*ms(main.wall) - ms(inRun)) / n
		switch {
		case main.sink != nil:
			appends = main.sink.appends
			appendMS = perCall(main.sink.total, main.sink.appends)
		case main.coord != nil:
			appends = int(main.coord.counters.RecordsMerged)
		}
	}
	rep.set("sweep.expand_ms", "ms", ms(expand))
	rep.set("sweep.appends", "count", float64(appends))
	rep.set("sweep.append_ms", "ms", appendMS)
	rep.set("sweep.queue_ms", "ms", queue)
	rep.set("sweep.cell_overhead_ms", "ms", overhead)
}

// setCoordLayers reports the coordinator layer of a traced distributed
// pass: round trips as seen by the workers' HTTP clients, counters from
// the coordinator's /metrics.
func setCoordLayers(rep *report, main phaseTrace) {
	var lease, heartbeat, complete []float64
	var empty int
	var busy time.Duration
	c := main.coord
	if c != nil {
		for _, t := range c.transports {
			lease = append(lease, t.rtt["/coord/lease"]...)
			heartbeat = append(heartbeat, t.rtt["/coord/heartbeat"]...)
			complete = append(complete, t.rtt["/coord/complete"]...)
			empty += t.emptyPolls
			busy += t.busy
		}
	}
	rep.set("coord.lease_rtt_ms", "ms", median(lease))
	rep.set("coord.heartbeat_rtt_ms", "ms", median(heartbeat))
	rep.set("coord.complete_rtt_ms", "ms", median(complete))
	rep.set("coord.empty_polls", "count", float64(empty))
	if c == nil {
		for _, name := range []string{"leases_granted", "leases_expired", "shards_reassigned"} {
			rep.set("coord."+name, "count", 0)
		}
		rep.set("coord.worker_busy_frac", "share", 0)
		return
	}
	rep.set("coord.leases_granted", "count", float64(c.counters.LeasesGranted))
	rep.set("coord.leases_expired", "count", float64(c.counters.LeasesExpired))
	rep.set("coord.shards_reassigned", "count", float64(c.counters.ShardsReassigned))
	rep.set("coord.worker_busy_frac", "share", busy.Seconds()/(2*main.wall.Seconds()))
}
