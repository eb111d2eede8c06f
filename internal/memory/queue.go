package memory

// Event is a timestamped item flowing through a latency queue: a
// request or fill that becomes visible at ReadyCycle.
type Event struct {
	Req Request
	// Line is the affected line address (fills are line-granular).
	Line Addr
	// ReadyCycle is the first cycle at which the event may be consumed.
	ReadyCycle uint64
	// HitLevel records where the data was found, for fills.
	HitLevel HitLevel
	// Payload carries model-specific data (e.g. an MSHR pointer).
	Payload int
}

// LatencyQueue is a bounded FIFO whose entries become visible only
// after their ReadyCycle, modelling a fixed-latency pipe such as the
// L1↔L2 interconnect or the response queue in Figure 7a.
//
// Ordering guarantee: among events that are ready at a given cycle,
// PopReady serves them strictly in insertion (FIFO) order; an unready
// event never blocks a ready one behind it. This is the property the
// SM fill path relies on for deterministic replay — two fills ready on
// the same cycle always retire in issue order.
//
// Events stay in fixed slots. A separate key array, sorted by
// (ReadyCycle, insertion sequence), orders them, so the per-cycle
// questions read only keys: NextReady is keys[0] and exact at all
// times, and PopReady fails in O(1) when keys[0] is not yet ready.
//
// keys is a window that slides forward through keyBuf: popping the
// front key (the usual case) advances the window instead of moving the
// keys behind it. A push that reaches the end of keyBuf moves the
// window back to its start; keyBuf holds twice the capacity, so that
// happens at most once per capacity pushes.
type LatencyQueue struct {
	name     string
	capacity int
	slots    []Event    // event storage, addressed by queueKey.slot
	keys     []queueKey // live events sorted by (ready, seq)
	keyBuf   []queueKey // backing array of keys
	free     []int      // unused slot indices
	pushes   uint64     // also the next event's sequence number
	fullHits uint64
}

// queueKey orders one queued event.
type queueKey struct {
	ready uint64 // the event's ReadyCycle
	seq   uint64 // insertion order, for FIFO among ready events
	slot  int
}

// NewLatencyQueue returns a queue with the given capacity; capacity <= 0
// means unbounded. Bounded queues preallocate their slots, keys and
// free list so the steady state never allocates.
func NewLatencyQueue(name string, capacity int) *LatencyQueue {
	q := &LatencyQueue{name: name, capacity: capacity}
	if capacity > 0 {
		q.slots = make([]Event, capacity)
		q.keyBuf = make([]queueKey, 2*capacity)
		q.free = make([]int, 0, capacity)
	}
	q.freeAll()
	return q
}

// freeAll empties the queue, marking every slot unused.
func (q *LatencyQueue) freeAll() {
	q.keys = q.keyBuf[:0]
	q.free = q.free[:0]
	for i := len(q.slots) - 1; i >= 0; i-- {
		q.free = append(q.free, i)
	}
}

// Name returns the queue's diagnostic name.
func (q *LatencyQueue) Name() string { return q.name }

// Len reports the number of queued events.
func (q *LatencyQueue) Len() int { return len(q.keys) }

// Full reports whether the queue cannot accept another event.
func (q *LatencyQueue) Full() bool {
	return q.capacity > 0 && len(q.keys) >= q.capacity
}

// Push enqueues ev; it reports false (and counts a structural stall)
// when the queue is full.
func (q *LatencyQueue) Push(ev Event) bool {
	if q.Full() {
		q.fullHits++
		return false
	}
	var slot int
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slots[slot] = ev
	} else { // unbounded and every slot in use
		slot = len(q.slots)
		q.slots = append(q.slots, ev)
	}
	if len(q.keys) == cap(q.keys) {
		if cap(q.keys) == cap(q.keyBuf) { // unbounded and full: grow
			q.keyBuf = make([]queueKey, 2*len(q.keys)+16)
		}
		q.keys = q.keyBuf[:copy(q.keyBuf, q.keys)] // rewind to the start
	}
	// The new key has the largest seq, so it goes after every key with
	// the same or an earlier ReadyCycle. Pushes arrive in nearly
	// ReadyCycle order, so the walk from the tail is short.
	i := len(q.keys)
	q.keys = q.keys[:i+1]
	for i > 0 && q.keys[i-1].ready > ev.ReadyCycle {
		q.keys[i] = q.keys[i-1]
		i--
	}
	q.keys[i] = queueKey{ready: ev.ReadyCycle, seq: q.pushes, slot: slot}
	q.pushes++
	return true
}

// NextReady returns the earliest ReadyCycle among queued events: no
// event is consumable before it, and one is consumable at it. ok is
// false when the queue is empty.
func (q *LatencyQueue) NextReady() (cycle uint64, ok bool) {
	if len(q.keys) == 0 {
		return 0, false
	}
	return q.keys[0].ready, true
}

// PopReady dequeues and returns the oldest event whose ReadyCycle has
// arrived, or ok=false when none is ready. The ready events are a
// prefix of the key array; the one pushed first among them is served.
func (q *LatencyQueue) PopReady(now uint64) (ev Event, ok bool) {
	if len(q.keys) == 0 || q.keys[0].ready > now {
		return Event{}, false
	}
	best := 0
	for i := 1; i < len(q.keys) && q.keys[i].ready <= now; i++ {
		if q.keys[i].seq < q.keys[best].seq {
			best = i
		}
	}
	slot := q.keys[best].slot
	copy(q.keys[1:best+1], q.keys[:best])
	q.keys = q.keys[1:]
	q.free = append(q.free, slot)
	return q.slots[slot], true
}

// Stats reports cumulative pushes and full-queue rejections.
func (q *LatencyQueue) Stats() (pushes, fullRejections uint64) {
	return q.pushes, q.fullHits
}

// Reset empties the queue and clears statistics.
func (q *LatencyQueue) Reset() {
	q.freeAll()
	q.pushes, q.fullHits = 0, 0
}
