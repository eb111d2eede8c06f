package cache

import (
	"math/rand"
	"testing"

	"repro/internal/memory"
	"repro/internal/workload"
)

// refCache is the reference model for Cache: one struct per line in a
// slice per set, and the group-by-group XOR index loop. It is the
// layout Cache used before its tag state became flat per-field rows;
// FuzzCacheMatchesReference holds the two to identical behaviour.
type refCache struct {
	cfg   Config
	bits  uint
	sets  [][]refLine
	stats Stats
}

type refLine struct {
	valid   bool
	dirty   bool
	addr    memory.Addr
	ownerW  int
	lastUse uint64
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.Sets()
	bits := uint(0)
	for 1<<bits < nsets {
		bits++
	}
	sets := make([][]refLine, nsets)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	return &refCache{cfg: cfg, bits: bits, sets: sets}
}

func (c *refCache) set(la memory.Addr) []refLine {
	return c.sets[c.index(la)]
}

func (c *refCache) index(la memory.Addr) uint64 {
	line := la.LineIndex()
	mask := uint64(len(c.sets) - 1)
	if !c.cfg.UseXORHash {
		return line & mask
	}
	idx := uint64(0)
	for line != 0 && mask != 0 {
		idx ^= line & mask
		line >>= c.bits
	}
	return idx
}

func (c *refCache) Probe(addr memory.Addr) bool {
	la := addr.LineAddr()
	for _, l := range c.set(la) {
		if l.valid && l.addr == la {
			return true
		}
	}
	return false
}

func (c *refCache) Access(addr memory.Addr, wid int, now uint64, isWrite bool) bool {
	la := addr.LineAddr()
	set := c.set(la)
	c.stats.Accesses++
	for i := range set {
		if set[i].valid && set[i].addr == la {
			set[i].lastUse = now
			if isWrite {
				c.stats.WriteHits++
				if c.cfg.Write == WriteBackAllocate {
					set[i].dirty = true
				}
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	if isWrite {
		c.stats.WriteMiss++
	}
	return false
}

func (c *refCache) Fill(addr memory.Addr, wid int, now uint64) (ev Eviction, evicted bool) {
	la := addr.LineAddr()
	set := c.set(la)
	c.stats.Fills++
	for i := range set {
		if set[i].valid && set[i].addr == la {
			set[i].lastUse = now
			return Eviction{}, false
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
		ev = Eviction{Line: set[victim].addr, OwnerWID: set[victim].ownerW, Evictor: wid, Dirty: set[victim].dirty}
		evicted = true
		c.stats.Evictions++
	}
	set[victim] = refLine{valid: true, addr: la, ownerW: wid, lastUse: now}
	return ev, evicted
}

func (c *refCache) Invalidate(addr memory.Addr) (present, dirty bool) {
	la := addr.LineAddr()
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].addr == la {
			present, dirty = true, set[i].dirty
			set[i] = refLine{}
			c.stats.Invalidates++
			return present, dirty
		}
	}
	return false, false
}

func (c *refCache) Owner(addr memory.Addr) (int, bool) {
	la := addr.LineAddr()
	for _, l := range c.set(la) {
		if l.valid && l.addr == la {
			return l.ownerW, true
		}
	}
	return 0, false
}

func (c *refCache) Flush() (dirtyLines int) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].dirty {
				dirtyLines++
			}
			set[i] = refLine{}
		}
	}
	return dirtyLines
}

func (c *refCache) OccupiedLines() int {
	n := 0
	for _, set := range c.sets {
		for _, l := range set {
			if l.valid {
				n++
			}
		}
	}
	return n
}

// fuzzGeometries are the cache shapes FuzzCacheMatchesReference drives:
// the Table I L1D (32 sets × 4 ways, write-through) and one L2 slice
// (128 sets × 8 ways, write-back), each with XOR and modulo indexing.
var fuzzGeometries = []Config{
	{Name: "L1D", SizeBytes: 16 << 10, Ways: 4, Write: WriteThroughNoAllocate},
	{Name: "L1D-xor", SizeBytes: 16 << 10, Ways: 4, Write: WriteThroughNoAllocate, UseXORHash: true},
	{Name: "L2-slice", SizeBytes: 128 << 10, Ways: 8, Write: WriteBackAllocate},
	{Name: "L2-slice-xor", SizeBytes: 128 << 10, Ways: 8, Write: WriteBackAllocate, UseXORHash: true},
}

// FuzzCacheMatchesReference drives Cache and refCache with the same
// random sequence of Access, Fill, Probe, Invalidate, Owner and Flush
// calls and requires identical returns, Stats and OccupiedLines after
// every call; OccupiedLines, which scans the whole cache, is compared
// every 32 calls and at the end. Inputs are cut at 1000 calls.
//
// The first input byte picks the geometry. Each later call takes five
// bytes: the operation, a low line byte, a high line byte, the warp ID
// and the cycle step. The high byte lands at line bit 20, so it feeds
// the upper fold groups under XOR. Cycle steps of 0 give LRU ties; one
// seed per geometry fills a single set at a standing cycle, so its
// evictions break ties.
//
// Run the seed corpus with `go test -run FuzzCacheMatchesReference`;
// fuzz with `go test -fuzz FuzzCacheMatchesReference ./internal/cache`.
func FuzzCacheMatchesReference(f *testing.F) {
	seq := make([]byte, 1, 1+5*400)
	for i := 0; i < 400; i++ {
		seq = append(seq, byte(i*7), byte(i*13), byte(i%3), byte(i%48), byte(i%3))
	}
	for g := range fuzzGeometries {
		seq[0] = byte(g)
		f.Add(append([]byte(nil), seq...))
	}
	for g, cfg := range fuzzGeometries {
		f.Add(sameSetSeed(byte(g), cfg))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := fuzzGeometries[int(data[0])%len(fuzzGeometries)]
		c, ref := New(cfg), newRefCache(cfg)
		if len(data) > 1+5*1000 {
			data = data[:1+5*1000]
		}
		now := uint64(0)
		for n, data := 0, data[1:]; len(data) >= 5; n, data = n+1, data[5:] {
			op := data[0]
			line := uint64(data[1]) | uint64(data[2])<<20
			addr := memory.Addr(line<<memory.LineShift | uint64(op>>3))
			wid := int(data[3])
			now += uint64(data[4] & 3)
			var got, want [4]uint64
			switch op % 8 {
			case 0, 1:
				got[0] = b2u(c.Access(addr, wid, now, op%8 == 1))
				want[0] = b2u(ref.Access(addr, wid, now, op%8 == 1))
			case 2, 3:
				ev, ok := c.Fill(addr, wid, now)
				got = [4]uint64{uint64(ev.Line), uint64(ev.OwnerWID)<<32 | uint64(ev.Evictor), b2u(ev.Dirty), b2u(ok)}
				ev, ok = ref.Fill(addr, wid, now)
				want = [4]uint64{uint64(ev.Line), uint64(ev.OwnerWID)<<32 | uint64(ev.Evictor), b2u(ev.Dirty), b2u(ok)}
			case 4:
				got[0], want[0] = b2u(c.Probe(addr)), b2u(ref.Probe(addr))
			case 5:
				p, d := c.Invalidate(addr)
				got[0], got[1] = b2u(p), b2u(d)
				p, d = ref.Invalidate(addr)
				want[0], want[1] = b2u(p), b2u(d)
			case 6:
				w, ok := c.Owner(addr)
				got[0], got[1] = uint64(w), b2u(ok)
				w, ok = ref.Owner(addr)
				want[0], want[1] = uint64(w), b2u(ok)
			case 7:
				if data[4]&0xf0 != 0 {
					continue // keep flushes rare
				}
				got[0], want[0] = uint64(c.Flush()), uint64(ref.Flush())
			}
			if got != want {
				t.Fatalf("%s: op %d on %s at cycle %d: got %v, reference %v", cfg.Name, op%8, addr, now, got, want)
			}
			if c.Stats() != ref.stats {
				t.Fatalf("%s: op %d: stats %+v, reference %+v", cfg.Name, op%8, c.Stats(), ref.stats)
			}
			if n%32 == 31 && c.OccupiedLines() != ref.OccupiedLines() {
				t.Fatalf("%s: op %d: occupied %d, reference %d", cfg.Name, op%8, c.OccupiedLines(), ref.OccupiedLines())
			}
		}
		if c.OccupiedLines() != ref.OccupiedLines() {
			t.Fatalf("%s: occupied %d, reference %d", cfg.Name, c.OccupiedLines(), ref.OccupiedLines())
		}
	})
}

// sameSetSeed returns a FuzzCacheMatchesReference input for geometry
// g that fills 3×Ways lines of one set, all at cycle 0 and so with
// equal LRU age, then probes and reads the set's owners.
func sameSetSeed(g byte, cfg Config) []byte {
	ref := newRefCache(cfg)
	seed := []byte{g}
	var owners []byte
	n := 0
	for hi := 0; hi < 256 && n < 3*cfg.Ways; hi++ {
		for lo := 0; lo < 256 && n < 3*cfg.Ways; lo++ {
			line := uint64(lo) | uint64(hi)<<20
			if ref.index(memory.Addr(line<<memory.LineShift)) == 0 {
				seed = append(seed, 2, byte(lo), byte(hi), byte(n), 0)
				owners = append(owners, 6, byte(lo), byte(hi), 0, 0)
				n++
			}
		}
	}
	return append(seed, owners...)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BenchmarkCacheAccessFill measures the per-access tag path: an Access
// for every request and a Fill for every miss, over a random line
// stream whose working set is twice the cache's capacity, at the L1D
// and L2 slice geometries with XOR indexing. The lines start at the
// workloads' input base address, so the set index folds as many line
// number bits as it does in a simulated cell.
func BenchmarkCacheAccessFill(b *testing.B) {
	for _, cfg := range []Config{fuzzGeometries[1], fuzzGeometries[3]} {
		b.Run(cfg.Name, func(b *testing.B) {
			c := New(cfg)
			lines := 2 * cfg.Sets() * cfg.Ways
			rng := rand.New(rand.NewSource(1))
			addrs := make([]memory.Addr, 4096)
			for i := range addrs {
				addrs[i] = workload.GlobalBase + memory.Addr(rng.Intn(lines))<<memory.LineShift
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := addrs[i%len(addrs)]
				now := uint64(i)
				if !c.Access(a, i&63, now, false) {
					c.Fill(a, i&63, now)
				}
			}
		})
	}
}
