// Package memory provides the fundamental memory-system types shared by
// every level of the simulated GPU memory hierarchy: global addresses,
// cache-line arithmetic, set-index hashing, memory requests, MSHRs and
// the queues that connect L1D, shared memory, L2 and DRAM.
//
// The models follow the GTX480-like configuration the CIAO paper uses
// (Table I): 128-byte cache lines, XOR-based set-index hashing at L1D
// and L2 (after Nugteren et al., "A detailed GPU cache model based on
// reuse distance theory", HPCA 2014).
package memory

import (
	"fmt"
	"math/bits"
)

// Addr is a global memory byte address.
type Addr uint64

// LineSize is the cache line size in bytes used throughout the
// hierarchy (Table I: 128B lines at both L1D and L2).
const LineSize = 128

// LineShift is log2(LineSize).
const LineShift = 7

// LineAddr returns the address truncated to its cache line.
func (a Addr) LineAddr() Addr { return a &^ (LineSize - 1) }

// LineIndex returns the global line number of the address.
func (a Addr) LineIndex() uint64 { return uint64(a) >> LineShift }

// Offset returns the byte offset of the address within its line.
func (a Addr) Offset() uint32 { return uint32(a) & (LineSize - 1) }

// String renders the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// ModuloIndexer is the conventional power-of-two modulo set indexing:
// set = (addr >> lineShift) mod numSets.
type ModuloIndexer struct {
	Sets uint32
}

// SetIndex returns the set for the given address, in [0, Sets).
func (m ModuloIndexer) SetIndex(a Addr) uint32 {
	return uint32(a.LineIndex()) & (m.Sets - 1)
}

// XORIndexer implements the XOR-based set-index hashing the paper adds
// to both L1D and L2 ("we enhance the baseline L1D and L2 caches with a
// XOR-based set index hashing technique [26], making it close to the
// real GPU device's configuration"). The set index is the XOR of
// consecutive index-width bit groups of the line number, which spreads
// power-of-two strides across sets.
type XORIndexer struct {
	Sets uint32 // a power of two
	bits uint   // log2(Sets)
}

// NewXORIndexer returns an XORIndexer over sets, which must be a
// power of two.
func NewXORIndexer(sets uint32) XORIndexer {
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("memory: XORIndexer sets %d is not a power of two", sets))
	}
	return XORIndexer{Sets: sets, bits: uint(bits.TrailingZeros32(sets))}
}

// SetIndex returns the set for the given address, in [0, Sets). It is
// a pure function of the address.
func (x XORIndexer) SetIndex(a Addr) uint32 {
	return XORFold(a.LineIndex(), x.bits)
}

// XORFold folds a line number into a set index width bits wide by
// XORing all of its consecutive width-bit groups together. It is a
// prefix XOR by doubling: each step XORs the value with itself shifted
// by twice the previous distance, so afterwards bit i holds the XOR of
// bits i, i+width, i+2·width, … This takes log2(64/width) fixed steps
// (3 to 6 for the cache geometries here) where a group-by-group loop
// takes one iteration per nonzero group of the line number.
func XORFold(line uint64, width uint) uint32 {
	if width == 0 {
		return 0 // a single set
	}
	for s := width; s < 64; s <<= 1 {
		line ^= line >> s
	}
	return uint32(line & (1<<width - 1))
}
