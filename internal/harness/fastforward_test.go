package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/workload"
)

// TestRunMatchesStepLoop proves GPU.Run's fast-forward bit-exact: for
// every suite benchmark under the Figure 8 schedulers, LRR (whose Pick
// rotates every cycle) and adaptive CIAO, with time-series sampling on
// and off, Run must leave exactly the state a plain Step loop to the
// same stopping point leaves.
func TestRunMatchesStepLoop(t *testing.T) {
	factories := append(Schedulers(),
		SchedulerFactory{Name: "LRR", New: func() sm.Controller { return sched.NewLRR() }},
		SchedulerFactory{Name: "CIAO-C-adaptive", New: func() sm.Controller { return core.NewAdaptive(core.ModeC) }, NeedsSharedCache: true},
	)
	// The cycle cap stops both mid-run, so state that a finished run
	// hides, such as a stalled warp's NextReady, is compared too.
	variants := []struct{ sampleInterval, maxCycles uint64 }{{1000, 0}, {0, 3001}}
	for _, v := range variants {
		// A short budget keeps the race run fast; the short CIAO epoch
		// and deadlock window make interventions and valve releases
		// happen within it anyway.
		opt := Options{
			InstrPerWarp: 60,
			ConfigHook: func(c *sm.Config) {
				c.SampleInterval = v.sampleInterval
				c.MaxCycles = v.maxCycles
				c.DeadlockWindow = 200
			},
			ControllerHook: func(ctrl sm.Controller) {
				if c, ok := ctrl.(*core.CIAO); ok {
					p := c.Params()
					p.HighEpoch = 500
					*c = *core.New(c.Mode(), p)
				}
			},
		}
		build := func(t *testing.T, spec workload.Spec, f SchedulerFactory) *sm.GPU {
			t.Helper()
			ctrl := f.New()
			opt.ControllerHook(ctrl)
			g, err := sm.NewGPU(opt.buildConfig(f), workload.MustKernel(opt.applySpec(spec)), ctrl, nil)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		for _, spec := range workload.Suite() {
			name := fmt.Sprintf("%s/sample=%d/cap=%d", spec.Name, v.sampleInterval, v.maxCycles)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for _, f := range factories {
					runStepLoopPair(t, f.Name, build(t, spec, f), build(t, spec, f))
				}
			})
		}
	}
}

// runStepLoopPair runs one GPU with Run and its twin with a Step loop,
// then compares everything they leave behind.
func runStepLoopPair(t *testing.T, ctrl string, run, step *sm.GPU) {
	t.Helper()
	got := run.Run()
	for !step.Done() && step.Cycle() < step.Config().MaxCycles {
		step.Step()
	}
	checks := []struct {
		name      string
		got, want any
	}{
		{"result", got, step.Result()},
		{"MSHR stats", mshrStats(run), mshrStats(step)},
		{"L2 stats", run.L2().Stats(), step.L2().Stats()},
		{"time series", run.TimeSeries(), step.TimeSeries()},
		{"interference matrix", run.Interference(), step.Interference()},
		{"warps", warps(run), warps(step)},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s differ:\nRun       %+v\nstep loop %+v", ctrl, c.name, c.got, c.want)
		}
	}
	// Everything else, unexported counters such as the deadlock
	// window's last-issue cycle included.
	if !reflect.DeepEqual(run, step) {
		t.Fatalf("%s: GPU state differs between Run and the step loop", ctrl)
	}
}

func mshrStats(g *sm.GPU) [3]uint64 {
	a, m, s := g.MSHR().Stats()
	return [3]uint64{a, m, s}
}

func warps(g *sm.GPU) []sm.Warp {
	out := make([]sm.Warp, g.NumWarps())
	for i := range out {
		out[i] = *g.Warp(i)
	}
	return out
}
