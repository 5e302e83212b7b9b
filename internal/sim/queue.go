package sim

import "time"

// key is an event's place in the total order the kernel fires in: virtual
// time, then the sequence number drawn when the event was scheduled. Keys
// are unique within an Env, since every one takes a fresh number from its
// counter.
type key struct {
	at  time.Duration
	seq uint64
}

func (a key) before(b key) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// item is a scheduled occurrence in the event queue.
type item struct {
	key
	fn func()
}

// eventQueue is the kernel's priority queue: it pops items in key order. It
// is a sorted-run queue. Items live in FIFO runs, each sorted by key, and
// only the runs' heads compete in a min-heap, so the heap is as deep as the
// number of runs rather than the number of events.
//
// The model makes runs cheap to keep sorted. Most pushes carry a fresh
// sequence number, and a burst of events scheduled with one delay arrives
// in key order. A run takes an item only if the item does not precede the
// run's tail, so each run stays sorted by construction, and merging the
// runs through their heads yields exactly the order a heap over every item
// would have. Pushes under an older reserved key (Lane.arm) go through the
// same rule.
//
// Placement is best fit: an item joins the run with the latest tail that
// does not come after it, else it starts a new run. tails keeps the
// non-empty runs' tails in strictly descending key order, which best fit
// preserves:
//   - An item joining tails[i] becomes its tail. It is no earlier than the
//     old tail and earlier than tails[i-1], so the order holds in place.
//   - An item that starts a run precedes every tail, so its entry goes at
//     the end.
//   - The run a pop empties held only the earliest queued item, which was
//     its tail and therefore the earliest tail, so its entry is the last.
//
// Every operation is O(log runs) for any push order. There is a binary
// search on push, a sift on either side, and no entry of tails ever shifts.
// The number of runs is that of patience sorting: one per lockstep delay in
// the simulated workloads, and one per item for strictly descending pushes,
// which stays O(log n) per operation.
//
// Every item sits in one slab of slots, and a run is a list linked through
// them, so the queue grows one array to its peak depth as a binary heap
// does, instead of an array per run. A popped slot is zeroed, releasing its
// closure to the GC, and reused by the next push. Nothing is stored by
// pointer: at tens of millions of events per run a pointer per item would
// be an allocation and GC scan load each.
type eventQueue struct {
	// slots holds the items; slots[0] is never used, so 0 links nowhere.
	slots []slot
	// vacant is the first free slot, linked through next.
	vacant int
	// n is the number of queued items.
	n    int
	runs []run
	// freeRuns lists the empty runs in runs, for reuse.
	freeRuns []int
	// heap is a binary min-heap of the non-empty runs' heads.
	heap []ref
	// tails holds the non-empty runs' tails, latest first.
	tails []ref
	// work counts the queue's steps, binary-search probes and sift levels.
	// Tests pin it to O(n log n) for n events.
	work uint64
}

// slot is an item and the next slot of its run, or of the free list.
type slot struct {
	item
	next int
}

// run is a FIFO of items sorted by key, from slot head to slot tail.
type run struct{ head, tail int }

// ref is a run's head or tail key, kept beside the run's index so the heap
// and the tail search compare without reaching into the slots.
type ref struct {
	key
	run int
}

// empty reports whether no item is queued.
func (q *eventQueue) empty() bool { return len(q.heap) == 0 }

// nextAt returns the time of the earliest queued item. The queue must not
// be empty.
func (q *eventQueue) nextAt() time.Duration { return q.heap[0].at }

// push queues fn under the key (at, seq), which must be unique.
func (q *eventQueue) push(at time.Duration, seq uint64, fn func()) {
	k := key{at, seq}
	// Find the first tail that does not come after k; tails before it do.
	t := q.tails
	lo, hi := 0, len(t)
	probes := uint64(0)
	for lo < hi {
		probes++
		m := int(uint(lo+hi) >> 1)
		if k.before(t[m].key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	q.work += probes
	s := q.store(item{k, fn})
	if lo < len(t) {
		r := &q.runs[t[lo].run]
		q.slots[r.tail].next = s
		r.tail = s
		t[lo].key = k
		return
	}
	// k precedes every tail: it starts the run with the earliest tail.
	id := q.newRun()
	q.runs[id] = run{s, s}
	q.tails = append(q.tails, ref{k, id})
	q.heap = append(q.heap, ref{k, id})
	q.siftUp(len(q.heap) - 1)
}

// store puts it in a free slot and returns the slot's index.
func (q *eventQueue) store(it item) int {
	q.n++
	if s := q.vacant; s != 0 {
		q.vacant = q.slots[s].next
		q.slots[s] = slot{item: it}
		return s
	}
	if len(q.slots) == 0 {
		q.slots = append(q.slots, slot{}) // once per queue: slot 0 stands for none
	}
	q.slots = append(q.slots, slot{item: it})
	return len(q.slots) - 1
}

// newRun returns the index of an empty run, reusing a free one if any.
func (q *eventQueue) newRun() int {
	if n := len(q.freeRuns); n > 0 {
		id := q.freeRuns[n-1]
		q.freeRuns = q.freeRuns[:n-1]
		return id
	}
	q.runs = append(q.runs, run{})
	return len(q.runs) - 1
}

// pop removes and returns the earliest item. The queue must not be empty.
func (q *eventQueue) pop() item {
	top := &q.heap[0]
	id := top.run
	r := &q.runs[id]
	s := r.head
	it, next := q.slots[s].item, q.slots[s].next
	q.slots[s] = slot{next: q.vacant} // release the fn closure to the GC
	q.vacant = s
	q.n--
	if next != 0 {
		r.head = next
		top.key = q.slots[next].key
		q.siftDown()
		return it
	}
	// The run is empty: its tail was the earliest one, the last in tails.
	q.tails = q.tails[:len(q.tails)-1]
	q.freeRuns = append(q.freeRuns, id)
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown()
	}
	return it
}

// siftUp moves heap[i] up to its place.
func (q *eventQueue) siftUp(i int) {
	h := q.heap
	x := h[i]
	steps := uint64(0)
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(h[p].key) {
			break
		}
		h[i] = h[p]
		i = p
		steps++
	}
	h[i] = x
	q.work += steps
}

// siftDown moves heap[0] down to its place.
func (q *eventQueue) siftDown() {
	h := q.heap
	n := len(h)
	x := h[0]
	i := 0
	steps := uint64(0)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c].key) {
			c = r
		}
		if !h[c].before(x.key) {
			break
		}
		h[i] = h[c]
		i = c
		steps++
	}
	h[i] = x
	q.work += steps
}
