package experiments

import (
	"testing"
	"time"

	"skyfaas/internal/rng"
	"skyfaas/internal/sim"
)

// TestOpenLoopStartsNoProcessPerRequest runs a reduced EX-8 cell (the
// no-admission arm at 3x capacity, where the retry storm keeps the most
// requests in flight) and a reduced EX-11 cell (its two-cycle square wave)
// and reads Env.LiveProcs at every arrival: the open loop's requests are
// event-queue continuations, so the count must stay at the cell driver's,
// however many requests are in flight.
func TestOpenLoopStartsNoProcessPerRequest(t *testing.T) {
	const seed = 5
	cells := map[string]struct {
		keepAlive time.Duration
		streams   func(w *openLoopWorld) ([]*stream, error)
	}{
		"EX8": {0, func(w *openLoopWorld) ([]*stream, error) {
			w.spec.Retry = clientRetry
			s, err := constantStream("", 3*w.capacity, ex8Reduced.duration, rng.New(seed).Split("ex8/arrivals"), nil)
			return []*stream{s}, err
		}},
		"EX11": {ex11KeepAlive, func(w *openLoopWorld) ([]*stream, error) {
			train, measured, err := ex11Streams(ex11Reduced, rng.New(seed).Split("ex11/arrivals"))
			return []*stream{train, measured}, err
		}},
	}
	for name, cell := range cells {
		t.Run(name, func(t *testing.T) {
			var capacity float64
			arrivals, worst := 0, 0
			driver := -1
			err := openLoopReduced.runCell(seed, cell.keepAlive, &capacity, func(p *sim.Proc, w *openLoopWorld) error {
				ss, err := cell.streams(w)
				if err != nil {
					return err
				}
				env := w.rt.Env()
				driver = env.LiveProcs()
				for _, s := range ss {
					s.onArrival = func() {
						arrivals++
						worst = max(worst, env.LiveProcs())
					}
				}
				return w.serve(p, nil, false, ss...)
			})
			if err != nil {
				t.Fatal(err)
			}
			if arrivals == 0 {
				t.Fatal("no arrivals")
			}
			t.Logf("%d arrivals, %d processes live at the busiest", arrivals, worst)
			if worst != driver {
				t.Errorf("%d processes live at the busiest of %d arrivals, want the cell driver's %d", worst, arrivals, driver)
			}
		})
	}
}
