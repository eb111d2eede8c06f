package memory

import (
	"math/rand"
	"testing"
)

// refQueue is the reference model for LatencyQueue: a ring in push
// order, scanned from the head for the first ready event, which is
// removed by shifting the head side of the ring forward.
// FuzzLatencyQueueMatchesReference holds the two to identical
// behaviour.
type refQueue struct {
	capacity int
	buf      []Event
	head, n  int
	pushes   uint64
	fullHits uint64
}

func newRefQueue(capacity int) *refQueue {
	q := &refQueue{capacity: capacity}
	if capacity > 0 {
		q.buf = make([]Event, capacity)
	}
	return q
}

func (q *refQueue) idx(pos int) int { return (q.head + pos) % len(q.buf) }

func (q *refQueue) Push(ev Event) bool {
	if q.capacity > 0 && q.n >= q.capacity {
		q.fullHits++
		return false
	}
	if q.n == len(q.buf) {
		buf := make([]Event, 2*len(q.buf)+16)
		for pos := 0; pos < q.n; pos++ {
			buf[pos] = q.buf[q.idx(pos)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[q.idx(q.n)] = ev
	q.n++
	q.pushes++
	return true
}

func (q *refQueue) PopReady(now uint64) (Event, bool) {
	for pos := 0; pos < q.n; pos++ {
		if q.buf[q.idx(pos)].ReadyCycle > now {
			continue
		}
		ev := q.buf[q.idx(pos)]
		for p := pos; p > 0; p-- {
			q.buf[q.idx(p)] = q.buf[q.idx(p-1)]
		}
		q.head = q.idx(1)
		q.n--
		return ev, true
	}
	return Event{}, false
}

// minReady returns the smallest queued ReadyCycle.
func (q *refQueue) minReady() (uint64, bool) {
	lo := ^uint64(0)
	for pos := 0; pos < q.n; pos++ {
		if rc := q.buf[q.idx(pos)].ReadyCycle; rc < lo {
			lo = rc
		}
	}
	return lo, q.n > 0
}

// FuzzLatencyQueueMatchesReference drives LatencyQueue and refQueue
// with the same pushes and pops at a non-decreasing cycle and requires
// identical popped events, push results (capacity rejections), Len and
// Stats after every call, and NextReady equal to the exact minimum
// ReadyCycle.
//
// The first input byte picks the capacity (0 for unbounded, else 1 to
// 64); each later pair of bytes is one call: push an event ready some
// cycles before or after now, pop at now, or advance now. Inputs are
// cut at 2000 calls.
//
// Run the seed corpus with `go test -run FuzzLatencyQueueMatchesReference`;
// fuzz with `go test -fuzz FuzzLatencyQueueMatchesReference ./internal/memory`.
func FuzzLatencyQueueMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []byte{0, 1, 4, 64} {
		seq := []byte{capacity}
		for i := 0; i < 600; i++ {
			seq = append(seq, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		f.Add(seq)
	}
	f.Add([]byte{2, 0, 8, 0, 1, 0, 9, 2, 0, 3, 20, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1+2*2000 {
			data = data[:1+2*2000]
		}
		capacity := int(data[0] % 65)
		q, ref := NewLatencyQueue("fuzz", capacity), newRefQueue(capacity)
		now, id := uint64(0), 0
		for data = data[1:]; len(data) >= 2; data = data[2:] {
			op, arg := data[0], data[1]
			switch op % 4 {
			case 0, 1: // push, ready up to 15 cycles ago or 63 ahead
				rc := now + uint64(arg>>2)
				if arg&3 == 0 {
					rc = now - min(now, uint64(arg>>4))
				}
				id++
				ev := Event{Req: Request{WarpID: id % 48, IssueCycle: now}, Line: Addr(id) << LineShift, ReadyCycle: rc, Payload: id}
				if got, want := q.Push(ev), ref.Push(ev); got != want {
					t.Fatalf("push %d at cycle %d: got %v, reference %v", id, now, got, want)
				}
			case 2:
				got, gok := q.PopReady(now)
				want, wok := ref.PopReady(now)
				if got != want || gok != wok {
					t.Fatalf("pop at cycle %d: got %+v,%v, reference %+v,%v", now, got, gok, want, wok)
				}
			case 3:
				now += uint64(arg % 32)
			}
			if q.Len() != ref.n {
				t.Fatalf("Len = %d, reference %d", q.Len(), ref.n)
			}
			if p, r := q.Stats(); p != ref.pushes || r != ref.fullHits {
				t.Fatalf("Stats = %d,%d, reference %d,%d", p, r, ref.pushes, ref.fullHits)
			}
			gotRC, gotOK := q.NextReady()
			wantRC, wantOK := ref.minReady()
			if gotOK != wantOK || (gotOK && gotRC != wantRC) {
				t.Fatalf("NextReady = %d,%v, exact minimum %d,%v", gotRC, gotOK, wantRC, wantOK)
			}
		}
	})
}

// BenchmarkLatencyQueue runs the response queue's steady state: one op
// is one cycle, which retires every ready event and pushes one with a
// latency drawn uniformly from 1 to 57 cycles. The occupancy settles
// at the mean latency, 29 of 64 slots, the response queue's measured
// average.
func BenchmarkLatencyQueue(b *testing.B) {
	q := NewLatencyQueue("bench", 64)
	rng := rand.New(rand.NewSource(1))
	lat := make([]uint64, 4096)
	for i := range lat {
		lat[i] = 1 + uint64(rng.Intn(57))
	}
	cycle := func(now uint64) {
		for {
			if _, ok := q.PopReady(now); !ok {
				break
			}
		}
		q.Push(Event{Line: Addr(now) << LineShift, ReadyCycle: now + lat[now%uint64(len(lat))]})
	}
	for now := uint64(0); now < 1000; now++ {
		cycle(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	occupied := 0
	for i := 0; i < b.N; i++ {
		cycle(1000 + uint64(i))
		occupied += q.Len()
	}
	b.ReportMetric(float64(occupied)/float64(b.N), "occupancy")
}
