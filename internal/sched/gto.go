// Package sched implements the baseline warp schedulers the CIAO paper
// compares against (§V-A): GTO (greedy-then-oldest with XOR set
// hashing), CCWS (cache-conscious wavefront scheduling), Best-SWL
// (best static wavefront limiting) and statPCAL (priority-based cache
// allocation with L1D bypassing). The CIAO schedulers themselves live
// in internal/core.
package sched

import "repro/internal/sm"

// GTO is the baseline greedy-then-oldest scheduler: maximum TLP, no
// cache awareness.
type GTO struct {
	sm.Base
	sm.GreedyThenOldest
}

// NewGTO returns a GTO controller.
func NewGTO() *GTO { return &GTO{} }

// Name implements sm.Controller.
func (s *GTO) Name() string { return "GTO" }

// Pick implements sm.Controller.
func (s *GTO) Pick(g *sm.GPU, now uint64) int {
	return s.PickGTO(g, now, sm.AllWarps)
}

// LRR is a loose round-robin scheduler, provided as an extra baseline
// for ablations: warps issue in rotating order with no greediness.
type LRR struct {
	sm.Base
	next int
}

// NewLRR returns an LRR controller.
func NewLRR() *LRR { return &LRR{} }

// Name implements sm.Controller.
func (s *LRR) Name() string { return "LRR" }

// NextEvent implements sm.Controller: the rotation moves every cycle.
func (s *LRR) NextEvent(g *sm.GPU, now uint64) uint64 { return now + 1 }

// Pick implements sm.Controller.
func (s *LRR) Pick(g *sm.GPU, now uint64) int {
	n := g.NumWarps()
	for off := 0; off < n; off++ {
		i := (s.next + off) % n
		if g.Warp(i).Ready(now) {
			s.next = (i + 1) % n
			return i
		}
	}
	return -1
}
