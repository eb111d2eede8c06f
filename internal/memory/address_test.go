package memory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLineAddr(t *testing.T) {
	cases := []struct {
		in, want Addr
	}{
		{0, 0},
		{1, 0},
		{127, 0},
		{128, 128},
		{129, 128},
		{255, 128},
		{0xdeadbeef, 0xdeadbe80},
	}
	for _, c := range cases {
		if got := c.in.LineAddr(); got != c.want {
			t.Errorf("LineAddr(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestLineIndexOffsetRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		recon := Addr(addr.LineIndex()<<LineShift) + Addr(addr.Offset())
		return recon == addr && addr.Offset() < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModuloIndexerRange(t *testing.T) {
	m := ModuloIndexer{Sets: 32}
	for a := Addr(0); a < 64*LineSize; a += LineSize {
		if s := m.SetIndex(a); s >= 32 {
			t.Fatalf("SetIndex(%s) = %d out of range", a, s)
		}
	}
	// Consecutive lines map to consecutive sets.
	if m.SetIndex(0) != 0 || m.SetIndex(LineSize) != 1 {
		t.Errorf("modulo indexing wrong: set(0)=%d set(128)=%d", m.SetIndex(0), m.SetIndex(LineSize))
	}
	// Wraps at Sets lines.
	if m.SetIndex(32*LineSize) != 0 {
		t.Errorf("expected wrap to set 0, got %d", m.SetIndex(32*LineSize))
	}
}

func TestXORIndexerRange(t *testing.T) {
	x := NewXORIndexer(32)
	f := func(a uint64) bool { return x.SetIndex(Addr(a)) < 32 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXORIndexerPureFunction(t *testing.T) {
	x := NewXORIndexer(64)
	f := func(a uint64) bool {
		return x.SetIndex(Addr(a)) == x.SetIndex(Addr(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestXORIndexerSpreadsPowerOfTwoStrides is the raison d'être of XOR
// hashing: a stride equal to Sets*LineSize maps every access to the
// same set under modulo indexing but should spread under XOR hashing.
func TestXORIndexerSpreadsPowerOfTwoStrides(t *testing.T) {
	const sets = 32
	mod := ModuloIndexer{Sets: sets}
	xor := NewXORIndexer(sets)

	stride := Addr(sets * LineSize)
	modSets := map[uint32]bool{}
	xorSets := map[uint32]bool{}
	for i := 0; i < 64; i++ {
		a := Addr(i) * stride
		modSets[mod.SetIndex(a)] = true
		xorSets[xor.SetIndex(a)] = true
	}
	if len(modSets) != 1 {
		t.Fatalf("modulo should conflict on power-of-two stride, got %d sets", len(modSets))
	}
	if len(xorSets) < sets/2 {
		t.Errorf("XOR hashing spread only %d/%d sets for power-of-two stride", len(xorSets), sets)
	}
}

// TestXORFoldMatchesGroupLoop compares the doubling fold with the
// direct definition, one XOR per index-width group of the line number,
// for every power-of-two set count from 1 to 2^16.
func TestXORFoldMatchesGroupLoop(t *testing.T) {
	groupLoop := func(line uint64, width uint) uint32 {
		mask := uint64(1)<<width - 1
		idx := uint64(0)
		for ; line != 0 && width != 0; line >>= width {
			idx ^= line & mask
		}
		return uint32(idx)
	}
	rng := rand.New(rand.NewSource(1))
	for width := uint(0); width <= 16; width++ {
		lines := []uint64{0, ^uint64(0), ^uint64(0) >> LineShift}
		for i := 0; i < 1000; i++ {
			lines = append(lines, rng.Uint64()>>(rng.Intn(64)))
		}
		x := NewXORIndexer(1 << width)
		for _, line := range lines {
			want := groupLoop(line, width)
			if got := XORFold(line, width); got != want {
				t.Fatalf("XORFold(%#x, %d) = %#x, want %#x", line, width, got, want)
			}
			a := Addr(line << LineShift)
			if got, want := x.SetIndex(a), groupLoop(a.LineIndex(), width); got != want {
				t.Fatalf("sets=%d: SetIndex(%s) = %#x, want %#x", 1<<width, a, got, want)
			}
		}
	}
}

func TestNewXORIndexerRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two set count")
		}
	}()
	NewXORIndexer(48)
}

func TestAccessKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Errorf("unexpected kind strings: %v %v", Load, Store)
	}
	if !Store.IsWrite() || Load.IsWrite() {
		t.Error("IsWrite misclassifies")
	}
	if !SharedLoad.IsShared() || Load.IsShared() {
		t.Error("IsShared misclassifies")
	}
}

func TestResponseLatency(t *testing.T) {
	r := Response{Req: Request{IssueCycle: 10}, DoneCycle: 110}
	if r.Latency() != 100 {
		t.Errorf("latency = %d, want 100", r.Latency())
	}
	r = Response{Req: Request{IssueCycle: 10}, DoneCycle: 5}
	if r.Latency() != 0 {
		t.Errorf("clamped latency = %d, want 0", r.Latency())
	}
}
