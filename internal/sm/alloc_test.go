package sm_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/workload"
)

// TestSteadyStateCycleAllocs pins the hot-path guarantee: once a
// simulation is warmed up, Advance — a cycle plus any fast-forward —
// performs zero heap allocations under every Figure 8 controller. The
// response queue preallocates its slots and keys, MSHR entries are pooled,
// warps hand out instructions from their batch buffers, the stream
// generator reads precompiled phase constants and controllers reuse
// their epoch buffers. The count is the total over a window spanning
// several controller epochs, not a per-call average that integer
// division would round an occasional allocation away from. A
// regression here silently multiplies GC pressure across every sweep
// cell, so it fails loudly.
func TestSteadyStateCycleAllocs(t *testing.T) {
	// The window spans at least two epochs of every controller: CCWS
	// and statPCAL count cycles, CIAO counts instructions.
	minCycles := 2 * max(sched.NewCCWS().UpdateEpoch, sched.NewStatPCAL().UpdateEpoch)
	minInst := 2 * core.DefaultParams().HighEpoch
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, f := range harness.Schedulers() {
		spec := tinySpec()
		spec.InstrPerWarp = 20000
		cfg := sm.DefaultConfig()
		cfg.SampleInterval = 0 // the sampled time series may grow; exclude it
		cfg.EnableSharedCache = f.NeedsSharedCache
		g := sm.MustGPU(cfg, workload.MustKernel(spec), f.New(), nil)
		// Warm up: fill the MSHR pool's working set, cycle the response
		// queue's slots, populate caches.
		for g.Cycle() < 5000 && !g.Done() {
			g.Advance()
		}
		c0, i0 := g.Cycle(), g.InstTotal()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for (g.Cycle()-c0 < minCycles || g.InstTotal()-i0 < minInst) && !g.Done() {
			g.Advance()
		}
		runtime.ReadMemStats(&after)
		if g.Done() {
			t.Fatalf("%s: workload too short to span two epochs", f.Name)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: steady-state Advance allocated %d objects over %d cycles, want 0",
				f.Name, n, g.Cycle()-c0)
		}
	}
}
