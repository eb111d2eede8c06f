package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

func newTestVTA() *VTA { return NewVTA(48, 8) } // Table I geometry

func TestVTAInsertProbe(t *testing.T) {
	v := newTestVTA()
	v.Insert(3, 0x1000, 7)

	hit, evictor := v.Probe(3, 0x1040) // same line
	if !hit || evictor != 7 {
		t.Fatalf("probe = (%v,%d), want (true,7)", hit, evictor)
	}
	// Entry consumed on hit.
	if hit, _ := v.Probe(3, 0x1000); hit {
		t.Fatal("probe hit a consumed entry")
	}
}

func TestVTAPerWarpIsolation(t *testing.T) {
	v := newTestVTA()
	v.Insert(3, 0x1000, 7)
	if hit, _ := v.Probe(4, 0x1000); hit {
		t.Fatal("warp 4 hit warp 3's VTA set")
	}
}

func TestVTAFIFOReplacement(t *testing.T) {
	v := NewVTA(2, 2)
	v.Insert(0, 0x000, 1)
	v.Insert(0, 0x080, 2)
	v.Insert(0, 0x100, 3) // displaces 0x000 (oldest)

	if hit, _ := v.Probe(0, 0x000); hit {
		t.Fatal("oldest entry not displaced by FIFO")
	}
	if hit, _ := v.Probe(0, 0x080); !hit {
		t.Fatal("second entry should survive")
	}
	if hit, _ := v.Probe(0, 0x100); !hit {
		t.Fatal("newest entry should survive")
	}
}

func TestVTAOutOfRangeWarpIsIgnored(t *testing.T) {
	v := newTestVTA()
	v.Insert(-1, 0x0, 0)
	v.Insert(48, 0x0, 0)
	if hit, _ := v.Probe(-1, 0x0); hit {
		t.Fatal("out-of-range probe hit")
	}
	if hit, _ := v.Probe(48, 0x0); hit {
		t.Fatal("out-of-range probe hit")
	}
}

func TestVTAStatsAndReset(t *testing.T) {
	v := newTestVTA()
	v.Insert(0, 0x0, 1)
	v.Probe(0, 0x0)
	v.Probe(0, 0x80)
	probes, hits, inserts := v.Stats()
	if probes != 2 || hits != 1 || inserts != 1 {
		t.Fatalf("stats = (%d,%d,%d), want (2,1,1)", probes, hits, inserts)
	}
	v.Reset()
	probes, hits, inserts = v.Stats()
	if probes != 0 || hits != 0 || inserts != 0 {
		t.Fatal("reset did not clear stats")
	}
	if hit, _ := v.Probe(0, 0x0); hit {
		t.Fatal("reset did not clear entries")
	}
}

func TestVTAGeometryAccessors(t *testing.T) {
	v := newTestVTA()
	if v.NumSets() != 48 || v.TagsPerSet() != 8 {
		t.Fatalf("geometry = (%d,%d), want (48,8)", v.NumSets(), v.TagsPerSet())
	}
}

// Property: an insert for warp w is observable by w (until displaced by
// tagsPerSet further inserts) and never observable by any other warp.
func TestVTAIsolationInvariant(t *testing.T) {
	f := func(owner uint8, line uint16, evictor uint8) bool {
		v := newTestVTA()
		w := int(owner) % 48
		v.Insert(w, memory.Addr(line)*memory.LineSize, int(evictor))
		hit, got := v.Probe(w, memory.Addr(line)*memory.LineSize)
		if !hit || got != int(evictor) {
			return false
		}
		// No cross-warp visibility.
		other := (w + 1) % 48
		hit, _ = v.Probe(other, memory.Addr(line)*memory.LineSize)
		return !hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkVTAProbe measures one lost-locality probe of the Table I
// VTA (48 warp sets × 8 tags), the check every L1 miss makes. Each
// warp probes lines drawn from its own 16. A hit consumes its entry; a
// missed line is inserted in the same op, as its eviction after the
// fill would be, so each set holds the owner's recent misses and about
// a third of the probes hit.
func BenchmarkVTAProbe(b *testing.B) {
	const warps, tags, lines = 48, 8, 16
	v := NewVTA(warps, tags)
	rng := rand.New(rand.NewSource(1))
	probes := make([]memory.Addr, 4096)
	for i := range probes {
		w := i % warps
		probes[i] = memory.Addr(0x1000_0000 + (w*lines+rng.Intn(lines))<<memory.LineShift)
	}
	op := func(i int) bool {
		w, a := i%warps, probes[i%len(probes)]
		hit, _ := v.Probe(w, a)
		if !hit {
			v.Insert(w, a, (w+1)%warps)
		}
		return hit
	}
	for i := 0; i < 4096; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if op(i) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit-rate")
}
