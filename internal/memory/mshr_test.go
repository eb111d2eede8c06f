package memory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMSHRAllocateAndMerge(t *testing.T) {
	m := NewMSHR(4, 2)
	r1 := Request{Addr: 0x1000, WarpID: 1}
	r2 := Request{Addr: 0x1040, WarpID: 2} // same 128B line
	r3 := Request{Addr: 0x2000, WarpID: 3} // different line

	e1, merged := m.Allocate(r1)
	if merged {
		t.Fatal("first allocation reported as merge")
	}
	if e1.Line != 0x1000 {
		t.Fatalf("entry line = %s, want 0x1000", e1.Line)
	}
	e2, merged := m.Allocate(r2)
	if !merged || e2 != e1 {
		t.Fatal("same-line request should merge into the existing entry")
	}
	if len(e1.Merged) != 2 {
		t.Fatalf("merged count = %d, want 2", len(e1.Merged))
	}
	if _, merged := m.Allocate(r3); merged {
		t.Fatal("distinct line should not merge")
	}
	if m.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", m.Outstanding())
	}
}

func TestMSHRCanAllocateLimits(t *testing.T) {
	m := NewMSHR(1, 2)
	m.Allocate(Request{Addr: 0x1000})
	if m.CanAllocate(0x3000) {
		t.Error("full MSHR should reject new lines")
	}
	if !m.CanAllocate(0x1010) {
		t.Error("same-line merge should be allowed below merge cap")
	}
	m.Allocate(Request{Addr: 0x1010})
	if m.CanAllocate(0x1020) {
		t.Error("merge cap reached; should reject")
	}
}

func TestMSHRFill(t *testing.T) {
	m := NewMSHR(4, 8)
	m.Allocate(Request{Addr: 0x1000, WarpID: 7})
	m.Allocate(Request{Addr: 0x1040, WarpID: 9})

	e := m.Fill(0x1008) // any address within the line
	if e == nil {
		t.Fatal("fill returned nil for outstanding line")
	}
	if len(e.Merged) != 2 {
		t.Fatalf("fill returned %d merged requests, want 2", len(e.Merged))
	}
	if m.Outstanding() != 0 {
		t.Fatalf("outstanding after fill = %d, want 0", m.Outstanding())
	}
	if m.Fill(0x1000) != nil {
		t.Error("double fill should return nil")
	}
}

func TestMSHRSharedAddrExtension(t *testing.T) {
	m := NewMSHR(2, 2)
	e, _ := m.Allocate(Request{Addr: 0x8000})
	e.SharedAddr = 0x1234
	e.SharedValid = true
	got := m.Fill(0x8000)
	if !got.SharedValid || got.SharedAddr != 0x1234 {
		t.Error("CIAO shared-address extension not preserved across fill")
	}
}

func TestMSHRStats(t *testing.T) {
	m := NewMSHR(2, 2)
	m.Allocate(Request{Addr: 0x0})
	m.Allocate(Request{Addr: 0x10})
	m.NoteStalls(1)
	alloc, merges, stalls := m.Stats()
	if alloc != 1 || merges != 1 || stalls != 1 {
		t.Errorf("stats = (%d,%d,%d), want (1,1,1)", alloc, merges, stalls)
	}
	m.Reset()
	alloc, merges, stalls = m.Stats()
	if alloc != 0 || merges != 0 || stalls != 0 || m.Outstanding() != 0 {
		t.Error("reset did not clear state")
	}
}

// Property: after any sequence of allocations within capacity, every
// line either has exactly one entry containing all its requests in
// order, and Outstanding never exceeds capacity.
func TestMSHRInvariant(t *testing.T) {
	f := func(lines []uint8) bool {
		m := NewMSHR(64, 64)
		perLine := map[Addr]int{}
		for i, l := range lines {
			a := Addr(l) * LineSize
			if !m.CanAllocate(a) {
				continue
			}
			m.Allocate(Request{Addr: a, WarpID: i})
			perLine[a]++
		}
		if m.Outstanding() != len(perLine) {
			return false
		}
		for a, n := range perLine {
			e := m.Lookup(a)
			if e == nil || len(e.Merged) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interleaved allocates and fills keep the open-addressed
// probe table consistent — backward-shift deletion must never strand a
// colliding entry behind a vacated slot.
func TestMSHRChurnInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMSHR(16, 4)
		want := map[Addr][]int{}
		for i, op := range ops {
			// Squeeze lines into 32 values so collisions and probe
			// chains are common in the 32-slot table.
			a := Addr(op%32) * LineSize
			if op&0x8000 != 0 {
				e := m.Fill(a)
				if _, live := want[a]; live {
					if e == nil || e.Line != a || len(e.Merged) != len(want[a]) {
						return false
					}
					delete(want, a)
				} else if e != nil {
					return false
				}
				continue
			}
			if !m.CanAllocate(a) {
				continue
			}
			m.Allocate(Request{Addr: a, WarpID: i})
			want[a] = append(want[a], i)
		}
		if m.Outstanding() != len(want) {
			return false
		}
		for a, ids := range want {
			e := m.Lookup(a)
			if e == nil || len(e.Merged) != len(ids) {
				return false
			}
			for j, id := range ids {
				if e.Merged[j].WarpID != id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMSHRResetRecyclesTable(t *testing.T) {
	m := NewMSHR(8, 2)
	for i := 0; i < 8; i++ {
		m.Allocate(Request{Addr: Addr(i) * LineSize, WarpID: i})
	}
	m.Reset()
	if m.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after Reset", m.Outstanding())
	}
	if a, _, _ := m.Stats(); a != 0 {
		t.Fatal("Reset did not clear stats")
	}
	// The full pool is available again and lookups find nothing stale.
	for i := 0; i < 8; i++ {
		a := Addr(i) * LineSize
		if m.Lookup(a) != nil {
			t.Fatalf("stale entry for %#x after Reset", a)
		}
		if !m.CanAllocate(a) {
			t.Fatalf("cannot allocate %#x after Reset", a)
		}
		m.Allocate(Request{Addr: a, WarpID: i})
	}
	if m.Outstanding() != 8 {
		t.Fatalf("Outstanding = %d, want 8", m.Outstanding())
	}
}

// BenchmarkMSHR runs the L1 MSHR (Table I: 32 entries, 8 merges each)
// at a steady occupancy of 16 live entries: one op is one request to a
// line drawn from 48 lines, which merges into a live entry or allocates
// a new one, after which the oldest entries are filled down to the
// target occupancy. About a third of the requests merge.
func BenchmarkMSHR(b *testing.B) {
	const entries, merges, target, pool = 32, 8, 16, 48
	m := NewMSHR(entries, merges)
	rng := rand.New(rand.NewSource(1))
	reqs := make([]Request, 4096)
	for i := range reqs {
		reqs[i] = Request{Addr: 0x1000_0000 + Addr(rng.Intn(pool))<<LineShift, WarpID: i % 48}
	}
	// fifo holds the live lines in allocation order; a line is live at
	// most once, so entries slots suffice.
	var fifo [entries]Addr
	head, n := 0, 0
	op := func(r Request) {
		if m.CanAllocate(r.Addr) {
			if _, merged := m.Allocate(r); !merged {
				fifo[(head+n)%entries] = r.Addr.LineAddr()
				n++
			}
		}
		for n > target {
			m.Fill(fifo[head])
			head = (head + 1) % entries
			n--
		}
	}
	for i := 0; i < 1000; i++ {
		op(reqs[i%len(reqs)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(reqs[i%len(reqs)])
	}
}
