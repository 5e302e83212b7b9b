package sim

import (
	"math"
	"math/bits"
	"testing"
	"time"
)

// heapQueue is the oracle for eventQueue: a binary min-heap over every
// queued item, the kernel's queue before sorted runs. The two must pop the
// same items in the same order for any sequence of unique keys.
type heapQueue []item

func (h heapQueue) less(i, j int) bool { return h[i].before(h[j].key) }

func (h *heapQueue) push(at time.Duration, seq uint64, fn func()) {
	*h = append(*h, item{key{at, seq}, fn})
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *heapQueue) pop() item {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	q = q[:n]
	for i := 0; ; {
		small := 2*i + 1
		if small >= n {
			break
		}
		if right := small + 1; right < n && q.less(right, small) {
			small = right
		}
		if !q.less(small, i) {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// scheduler is what queueScript drives: the kernel, or heapEnv.
type scheduler interface {
	Schedule(d time.Duration, fn func())
	Elapsed() time.Duration
	// post queues fn at absolute time at under a fresh sequence number:
	// Schedule addressed by instant instead of by delay.
	post(at time.Duration, fn func())
	// lane returns the push of a timer FIFO with the given delay.
	lane(delay time.Duration, fn func(int)) func(int)
}

// kernel is an Env as a scheduler: its lanes are sim.Lanes, which push
// their heads under reserved, older keys.
type kernel struct{ *Env }

func (k kernel) post(at time.Duration, fn func()) {
	k.seq++
	k.queue.push(at, k.seq, fn)
}

func (k kernel) lane(delay time.Duration, fn func(int)) func(int) {
	l := NewLane(k.Env, delay, fn, never)
	return func(v int) { l.Push(v) }
}

// heapEnv is a minimal kernel on the oracle heap: its lanes are the
// Schedule calls a Lane stands for (TestLaneMatchesSchedule).
type heapEnv struct {
	now time.Duration
	seq uint64
	q   heapQueue
}

func (h *heapEnv) Schedule(d time.Duration, fn func()) {
	h.post(h.now+max(d, 0), fn)
}

func (h *heapEnv) Elapsed() time.Duration { return h.now }

func (h *heapEnv) post(at time.Duration, fn func()) {
	h.seq++
	h.q.push(at, h.seq, fn)
}

func (h *heapEnv) lane(delay time.Duration, fn func(int)) func(int) {
	return func(v int) { h.Schedule(delay, func() { fn(v) }) }
}

func (h *heapEnv) run() {
	for len(h.q) > 0 {
		it := h.q.pop()
		h.now = it.at
		it.fn()
	}
}

// queueScript builds a seeded model on s in which every event logs itself
// and then, from a private sequence, arms up to four more: on one of three
// lanes (delays 0, 4 and 8 units), by Schedule with a delay of 0..8 units,
// by an absolute post 0..12 units ahead, or as a lockstep burst of one
// delay. Every delay is a whole number of units, so events tie exactly at
// nearly every instant. The script opens with a descending ramp, which
// makes one run per event, beside ascending ties.
func queueScript(s scheduler, seed uint64) *[]firing {
	const unit = time.Millisecond
	x := seed*2654435761 + 1
	draw := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int(x>>33) % n
	}
	log := new([]firing)
	budget, next := 6000, 0
	var fire func(id int)
	var lanes [3]func(int)
	for i := range lanes {
		lanes[i] = s.lane(time.Duration(4*i)*unit, func(id int) { fire(id) })
	}
	arm := func() (int, func()) {
		budget--
		next++
		id := next
		return id, func() { fire(id) }
	}
	spawn := func() {
		for k := draw(5); k > 0 && budget > 0; k-- {
			switch c := draw(8); {
			case c < 3:
				id, _ := arm()
				lanes[c](id)
			case c < 5:
				_, fn := arm()
				s.Schedule(time.Duration(draw(9))*unit, fn)
			case c < 7:
				_, fn := arm()
				s.post(s.Elapsed()+time.Duration(draw(13))*unit, fn)
			default:
				d := time.Duration(draw(9)) * unit
				for b := draw(16); b > 0 && budget > 0; b-- {
					_, fn := arm()
					s.Schedule(d, fn)
				}
			}
		}
	}
	fire = func(id int) {
		*log = append(*log, firing{at: s.Elapsed(), id: id})
		spawn()
	}
	for i := 0; i < 16; i++ {
		s.Schedule(time.Duration(16-i)*unit, spawn)
	}
	for i := 0; i < 8; i++ {
		s.Schedule(time.Duration(i%3)*unit, spawn)
	}
	return log
}

// TestQueueMatchesHeap: the sorted-run queue fires a seeded script — lane
// heads under older reserved keys, absolute posts, lockstep bursts, ties at
// every instant — in exactly the order the binary heap does, under Run, under
// RunFor in slices whose horizons land on event times, and paced.
func TestQueueMatchesHeap(t *testing.T) {
	modes := []struct {
		name string
		run  func(e *Env) error
	}{
		{"Run", (*Env).Run},
		{"RunFor", func(e *Env) error {
			for e.Pending() > 0 {
				if err := e.RunFor(5 * time.Millisecond / 2); err != nil {
					return err
				}
			}
			return nil
		}},
		{"RunPaced", func(e *Env) error { return e.RunPaced(1e6, nil, nil) }},
	}
	for seed := uint64(1); seed <= 12; seed++ {
		ref := new(heapEnv)
		wantLog := queueScript(ref, seed)
		ref.run()
		want := *wantLog
		if len(want) < 5000 {
			t.Fatalf("seed %d: the script fired only %d events", seed, len(want))
		}
		for _, m := range modes {
			e := NewEnv(epoch)
			log := queueScript(kernel{e}, seed)
			if err := m.run(e); err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			got := *log
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d events from the queue, %d from the heap", m.name, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: event %d is %+v from the queue, %+v from the heap", m.name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// FuzzQueue turns bytes into operations, two bytes each, on an Env's queue
// and on the oracle heap, and checks every firing, the next time and the
// length against it. A push is a fresh key at or after the clock, or a key
// reserved by an earlier operation and pushed later, out of sequence order,
// the way a Lane arms its head. The lane arm pushes timers on a Lane, whose
// oracle form is one Schedule per timer, and marks pending ones stale, for
// good: the lane must fire exactly the oracle's live timers, at the
// oracle's keys, and hold one queue entry while it holds a timer. A pop
// fires the next live event on both sides; the queue may pop a stale lane
// head first, as the oracle pops every stale timer. The seed corpus under
// testdata/fuzz/FuzzQueue holds descending ramps, ties, bursts, reserved
// keys and stale lane timers, and runs under plain `go test`.
func FuzzQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		const laneDelay = 8
		e := NewEnv(epoch)
		q := &e.queue
		var ref heapQueue
		var reserved []key
		var fired key
		stale := make(map[uint64]bool) // lane timers by seq, until fired live
		var pending []uint64           // live lane timers not yet fired, by seq
		lane := NewLane(e, laneDelay, func(seq uint64) { fired = key{e.now, seq} },
			func(_, seq uint64) bool { return stale[seq] })
		laneQueued := 0 // lane timers in the oracle
		check := func(step int) {
			t.Helper()
			want := len(ref) - laneQueued + min(lane.Len(), 1)
			if q.n != want || q.empty() != (want == 0) {
				t.Fatalf("step %d: queue holds %d, want %d (heap %d, %d of them lane timers, lane %d)", step, q.n, want, len(ref), laneQueued, lane.Len())
			}
			if q.n == 0 {
				return
			}
			// The queue holds the heap's items other than lane timers, and
			// the lane's head in place of those: its next time is the
			// earlier of the two, exactly.
			next := time.Duration(math.MaxInt64)
			for _, it := range ref {
				if _, isLane := stale[it.seq]; !isLane {
					next = min(next, it.at)
				}
			}
			if lane.Len() > 0 {
				next = min(next, lane.q[lane.head].at)
			}
			if q.nextAt() != next {
				t.Fatalf("step %d: queue next at %v, want %v (heap %v)", step, q.nextAt(), next, ref[0].at)
			}
		}
		live := func() bool { return len(ref)-laneQueued+len(pending) > 0 }
		// fire pops until an event logs itself, on the queue and on the
		// heap, and checks that the two logged the same key.
		fire := func(step int) {
			t.Helper()
			fired = key{}
			for fired == (key{}) {
				if q.empty() {
					t.Fatalf("step %d: queue drained before a live event", step)
				}
				it := q.pop()
				// Only this test queues a key behind the clock: a
				// reserved key pushed late (case 3) may lie in the past,
				// which no Lane and no Schedule does, so Env.run sets the
				// clock unclamped. The clamp is the test's own; it keeps the
				// clock the lane reads from going back, which the lane's
				// FIFO order rests on.
				e.now = max(e.now, it.at)
				it.fn()
			}
			got := fired
			fired = key{}
			for fired == (key{}) {
				it := ref.pop()
				if _, ok := stale[it.seq]; ok {
					laneQueued--
				}
				it.fn()
			}
			if got != fired {
				t.Fatalf("step %d: queue fired %+v, heap %+v", step, got, fired)
			}
			if _, ok := stale[got.seq]; ok {
				if pending[0] != got.seq {
					t.Fatalf("step %d: lane fired timer %d before live timer %d", step, got.seq, pending[0])
				}
				delete(stale, got.seq)
				pending = pending[1:]
			}
		}
		push := func(k key) {
			fn := func() { fired = k }
			q.push(k.at, k.seq, fn)
			ref.push(k.at, k.seq, fn)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], time.Duration(ops[i+1])
			switch op % 8 {
			case 0, 7:
				if live() {
					fire(i)
				}
			case 1:
				e.seq++
				push(key{e.now + arg%16, e.seq})
			case 2:
				e.seq++
				reserved = append(reserved, key{e.now + arg%16, e.seq})
			case 3:
				if n := len(reserved); n > 0 {
					j := int(arg) % n
					push(reserved[j])
					reserved = append(reserved[:j], reserved[j+1:]...)
				}
			case 4, 5:
				// The timer logs its value, the seq Push is to return, so a
				// wrong return fires under a key the heap does not have.
				k := key{e.now + laneDelay, lane.Push(e.seq + 1)}
				stale[k.seq] = false
				pending = append(pending, k.seq)
				laneQueued++
				ref.push(k.at, k.seq, func() {
					if !stale[k.seq] {
						fired = k
					}
				})
			case 6:
				// Mark the arg-th pending lane timer, in seq order, stale.
				if n := len(pending); n > 0 {
					j := int(arg) % n
					stale[pending[j]] = true
					pending = append(pending[:j], pending[j+1:]...)
				}
			}
			check(i)
		}
		for live() {
			fire(len(ops))
			check(len(ops))
		}
	})
}

// TestQueueLockstepRuns: the sampler's fan-out schedules bursts that share
// a delay. Four delays, a thousand schedules each, interleaved, make at
// most four runs, so the heap the pops sift holds four entries where the
// binary heap held 4,000; and it stays that shallow while the bursts fire
// and re-arm in lockstep.
func TestQueueLockstepRuns(t *testing.T) {
	delays := []time.Duration{time.Millisecond, 250 * time.Millisecond, 750 * time.Microsecond, 0}
	e := NewEnv(epoch)
	noop := func() {}
	for i := 0; i < 1000; i++ {
		for _, d := range delays {
			e.Schedule(d, noop)
		}
	}
	if got := len(e.queue.heap); got > len(delays) {
		t.Fatalf("%d lockstep schedules over %d delays left %d heap entries, want <= %d", 1000*len(delays), len(delays), got, len(delays))
	}

	e = NewEnv(epoch)
	deepest := 0
	for i := 0; i < 1000; i++ {
		stage := i % len(delays)
		var step func()
		step = func() {
			deepest = max(deepest, len(e.queue.heap))
			if stage < 4*len(delays) {
				stage++
				e.Schedule(delays[stage%len(delays)], step)
			}
		}
		e.Schedule(0, step)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if deepest > len(delays) {
		t.Fatalf("a thousand lockstep chains over %d delays reached %d heap entries, want <= %d", len(delays), deepest, len(delays))
	}
}

// TestQueueWorkIsNLogN: 10^5 events pushed with strictly descending,
// shuffled and ascending delays and then popped cost O(n log n) queue
// steps whatever the order. Descending pushes make one run per event and
// ascending ones a single run; neither may cost more than a heap would.
func TestQueueWorkIsNLogN(t *testing.T) {
	const n = 100_000
	shuffled := make([]time.Duration, n)
	for i := range shuffled {
		shuffled[i] = time.Duration(i)
	}
	x := uint64(7)
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i+1))
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	orders := []struct {
		name  string
		delay func(i int) time.Duration
	}{
		{"descending", func(i int) time.Duration { return time.Duration(n - i) }},
		{"shuffled", func(i int) time.Duration { return shuffled[i] }},
		{"ascending", func(i int) time.Duration { return time.Duration(i) }},
	}
	budget := uint64(4 * n * bits.Len(n))
	for _, o := range orders {
		e := NewEnv(epoch)
		last, fired := time.Duration(math.MinInt64), 0
		check := func() {
			if e.now < last {
				t.Fatalf("%s: clock went back from %v to %v", o.name, last, e.now)
			}
			last = e.now
			fired++
		}
		for i := 0; i < n; i++ {
			e.Schedule(o.delay(i), check)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if fired != n {
			t.Fatalf("%s: fired %d of %d", o.name, fired, n)
		}
		t.Logf("%s: %d steps (%.2f n log2 n) over %d runs", o.name, e.queue.work, float64(e.queue.work)/float64(n*bits.Len(n)), len(e.queue.runs))
		if w := e.queue.work; w > budget {
			t.Errorf("%s: %d events cost %d queue steps, want <= %d (4 n log2 n)", o.name, n, w, budget)
		}
	}
}
