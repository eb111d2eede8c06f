package sm

import "repro/internal/workload"

// MemPath selects where a warp's global accesses are served.
type MemPath uint8

// Memory paths.
const (
	// PathL1 is the conventional L1D path.
	PathL1 MemPath = iota
	// PathSharedCache redirects through the CIAO shared-memory cache.
	PathSharedCache
	// PathBypass skips L1D and goes straight to L2/DRAM (statPCAL).
	PathBypass
)

// Controller is the warp scheduler plus its policy hooks. One
// controller instance drives one GPU for one run; controllers carry
// state and must not be shared across concurrent GPUs.
type Controller interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Attach is called once before simulation with the GPU, letting
	// the controller size its tables.
	Attach(g *GPU)
	// Pick returns the warp to issue at cycle now, or -1 to idle.
	Pick(g *GPU, now uint64) int
	// MemPath routes warp wid's next global access.
	MemPath(g *GPU, wid int) MemPath
	// OnCycle runs before issue on every cycle that GPU.Run does not
	// skip (epoch bookkeeping). Run skips a cycle only when it would
	// replay the previous one, and never skips past NextEvent.
	OnCycle(g *GPU, now uint64)
	// NextEvent returns the earliest cycle after now at which OnCycle
	// or Pick may act differently, given that nothing issues or fills
	// in between. A controller whose OnCycle keys on cycles, or whose
	// Pick is not greedy-then-oldest (a stalled warp stays picked while
	// it is issueable), must override Base's "never".
	NextEvent(g *GPU, now uint64) uint64
	// OnIssue observes a successful issue.
	OnIssue(g *GPU, now uint64, wid int, kind workload.InstrKind)
	// OnVTAHit observes a lost-locality event: interfered warp's miss
	// matched its victim tags; interferer is the recorded evictor.
	// atShared reports whether the access was on the shared-cache path
	// (shared-memory interference rather than L1D interference).
	OnVTAHit(g *GPU, now uint64, interfered, interferer int, atShared bool)
	// OnWarpFinished observes warp completion.
	OnWarpFinished(g *GPU, wid int)
}

// Base is a no-op Controller core for embedding: concrete schedulers
// override what they need.
type Base struct{}

// Attach implements Controller.
func (Base) Attach(*GPU) {}

// MemPath implements Controller.
func (Base) MemPath(*GPU, int) MemPath { return PathL1 }

// OnCycle implements Controller.
func (Base) OnCycle(*GPU, uint64) {}

// NextEvent implements Controller: Base's OnCycle does nothing, and
// epochs that count instructions cannot fire while nothing issues.
func (Base) NextEvent(*GPU, uint64) uint64 { return ^uint64(0) }

// OnIssue implements Controller.
func (Base) OnIssue(*GPU, uint64, int, workload.InstrKind) {}

// OnVTAHit implements Controller.
func (Base) OnVTAHit(*GPU, uint64, int, int, bool) {}

// OnWarpFinished implements Controller.
func (Base) OnWarpFinished(*GPU, int) {}

// GreedyThenOldest is the GTO issue order shared by most controllers:
// keep issuing the last warp while it stays ready, otherwise fall back
// to the oldest (lowest-ID) ready warp. It is embedded by GTO, CCWS,
// Best-SWL, statPCAL and CIAO, which all "leverage GTO to decide the
// order of execution of warps" (§V-A).
type GreedyThenOldest struct {
	current int
}

// Eligibility selects which issueable warps PickGTO may choose. The
// V flag is consulted only through it, which lets throttling
// schedulers grant a barrier boost to stalled warps whose CTA is
// blocked (see GPU.CTABarrierPending).
type Eligibility uint8

// Eligibility rules.
const (
	// AllWarps ignores the V flag: every issueable warp may run.
	AllWarps Eligibility = iota
	// ActiveOnly admits only active (V=1) warps.
	ActiveOnly
	// ActiveOrBarrierBoosted is the standard rule for throttling
	// schedulers: active warps run; stalled warps run only when their
	// CTA has warps waiting at a barrier (which all threads must
	// reach).
	ActiveOrBarrierBoosted
)

// admits reports whether e lets warp w issue.
func (e Eligibility) admits(gpu *GPU, w *Warp) bool {
	switch e {
	case ActiveOnly:
		return w.V
	case ActiveOrBarrierBoosted:
		return w.V || gpu.CTABarrierPending(w.CTA)
	}
	return true
}

// PickGTO returns the GTO choice among issueable warps that e admits,
// or -1.
func (g *GreedyThenOldest) PickGTO(gpu *GPU, now uint64, e Eligibility) int {
	if g.current >= 0 && g.current < len(gpu.warps) {
		w := &gpu.warps[g.current]
		if w.Issueable(now) && e.admits(gpu, w) {
			return g.current
		}
	}
	// The live list is ascending, so this is the same oldest-first
	// order as scanning 0..NumWarps — minus the finished warps, which
	// are never issueable anyway.
	for _, i := range gpu.live {
		w := &gpu.warps[i]
		if w.Issueable(now) && e.admits(gpu, w) {
			g.current = i
			return i
		}
	}
	return -1
}
