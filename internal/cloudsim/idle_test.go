package cloudsim

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"skyfaas/internal/sim"
)

// TestReuseKeepsOneKeepAliveTimer: one instance cycled through acquire and
// release 10,000 times within the keep-alive arms 10,000 timers, each
// voided by the next reuse. The cloud's keep-alive lane drops the voided
// ones as it goes and holds the queued head and the live timer, not one
// timer per release.
func TestReuseKeepsOneKeepAliveTimer(t *testing.T) {
	const cycles = 10_000
	env, c := testWorld(t, plainAZ(1024), Options{KeepAlive: 5 * time.Minute})
	deploySleep(t, c, "fn", time.Millisecond)
	az, _ := c.AZ("test-az-1a")
	held := -1
	env.Go("client", func(p *sim.Proc) error {
		for i := 0; i < cycles; i++ {
			if r := invoke(p, c, Request{Account: "a", AZ: "test-az-1a", Function: "fn"}); !r.OK() || (i > 0 && r.Cold) {
				t.Fatalf("invocation %d: err %v, cold %v", i, r.Err, r.Cold)
			}
		}
		held = c.keepAliveTimers()
		return nil
	})
	if err := env.RunFor(4 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if az.LiveFIs() != 1 || held < 0 {
		t.Fatalf("%d instances live, cycles done %v; want one instance reused %d times within the keep-alive", az.LiveFIs(), held >= 0, cycles)
	}
	if held > 2 {
		t.Errorf("after %d reuses the keep-alive lane holds %d timers, want <= 2", cycles, held)
	}
}

// TestExpiredInstancesAreUnreferenced: a zone driven to saturation and
// then left idle past the keep-alive reaps every instance, and no
// deployment, nor the keep-alive lane, still references one of them.
func TestExpiredInstancesAreUnreferenced(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{KeepAlive: 5 * time.Minute, Quota: 4096})
	deploySleep(t, c, "fn", time.Second)
	az, _ := c.AZ("test-az-1a")
	ok, saturated := 0, 0
	for i := 0; i < 1500; i++ {
		c.StartInvoke(Request{Account: "a", AZ: "test-az-1a", Function: "fn"}, func(r Response) {
			switch {
			case r.OK():
				ok++
			case errors.Is(r.Err, ErrSaturated):
				saturated++
			}
		})
	}
	if err := env.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ok != 1024 || saturated != 476 || az.WarmIdle("fn") != 1024 {
		t.Fatalf("%d ok, %d saturated, %d idle; want the zone's 1,024 slots filled", ok, saturated, az.WarmIdle("fn"))
	}
	if err := env.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if az.LiveFIs() != 0 {
		t.Fatalf("%d instances live past the keep-alive, want 0", az.LiveFIs())
	}
	if n := az.destroyedIdleRefs(); n != 0 {
		t.Errorf("the zone's deployments still reference %d destroyed instances", n)
	}
	if n := c.keepAliveTimers(); n != 0 {
		t.Errorf("the keep-alive lane still holds %d timers", n)
	}
}

// shadowFI is the idle-pool state of one instance, as the warm-slice
// oracle keeps it.
type shadowFI struct {
	num             int
	busy, destroyed bool
	idleGen         uint64
}

// warmSlice is the oracle for a deployment's idle list: the warm pool as a
// slice of every instance that ever went idle, reused LIFO with the
// destroyed (and defensively busy) entries skipped as they surface, and
// counted and re-armed by a filtered scan. The list must acquire, count,
// re-arm and expire exactly as this does.
type warmSlice struct {
	warm  []*shadowFI
	floor int
}

func (w *warmSlice) release(fi *shadowFI) {
	fi.busy = false
	fi.idleGen++
	w.warm = append(w.warm, fi)
}

func (w *warmSlice) acquire() *shadowFI {
	for n := len(w.warm); n > 0; n = len(w.warm) {
		fi := w.warm[n-1]
		w.warm = w.warm[:n-1]
		if fi.destroyed || fi.busy {
			continue
		}
		fi.busy = true
		fi.idleGen++
		return fi
	}
	return nil
}

// idle returns the idle instances in slice order: what the warm pool
// counted as idle, and the order SetWarmFloor re-armed them in.
func (w *warmSlice) idle() []*shadowFI {
	var out []*shadowFI
	for _, fi := range w.warm {
		if !fi.destroyed && !fi.busy {
			out = append(out, fi)
		}
	}
	return out
}

func (w *warmSlice) expire(fi *shadowFI, gen uint64) {
	if fi.destroyed || fi.busy || fi.idleGen != gen {
		return
	}
	if w.floor > 0 && len(w.idle()) <= w.floor {
		return
	}
	fi.destroyed = true
}

// armedTimer is one keep-alive timer the script armed, under both keys:
// gen is the oracle's idleGen when it was armed, which the predicate this
// package used before voided it by (warmSlice.expire), and seq is the lane
// seq it drew, which timerStale voids it by.
type armedTimer struct {
	fi  *FI
	gen uint64
	seq uint64
}

// idleScript drives a deployment and the warm-slice oracle through one
// seeded interleaving of acquire, release, a probe's decline (destroyFI on
// a busy instance), PreWarm, SetWarmFloor and keep-alive expiry — any
// armed timer, in any order, which covers the lane's FIFO — and checks
// that both acquire the same instances, hold the same idle instances in the
// same order, and reap the same ones. The deployment fires a timer by its
// seq, the oracle by its gen. After every step it passes the armed timers
// to filter, when set, and keeps those filter returns.
func idleScript(t *testing.T, seed uint64, filter func(step int, timers []armedTimer, shadow map[*FI]*shadowFI) []armedTimer) {
	t.Helper()
	// A keep-alive longer than the run: the test fires timers itself.
	env, c := testWorld(t, plainAZ(128), Options{KeepAlive: 1000 * time.Hour})
	deploySleep(t, c, "fn", time.Millisecond)
	az, _ := c.AZ("test-az-1a")
	dep := az.deployments["fn"]
	x := seed*2654435761 + 1
	draw := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int(x>>33) % n
	}
	var oracle warmSlice
	shadow := make(map[*FI]*shadowFI)
	var busy []*FI
	var timers []armedTimer // armed, not yet fired
	// arm records the timer a release or an initialized pre-warm armed,
	// whose seq is the instance's idleSeq.
	arm := func(fi *FI) {
		timers = append(timers, armedTimer{fi: fi, gen: shadow[fi].idleGen, seq: fi.idleSeq})
	}
	// lastSeq pushes a timer on a destroyed stand-in, which is void from
	// the start, to learn the last seq the lane drew.
	lastSeq := func() uint64 { return c.keepAlive().Push(&FI{destroyed: true}) - 1 }
	expired, acquired, warm := 0, 0, 0
	for step := 0; step < 20_000; step++ {
		switch op := draw(20); {
		case op < 6: // acquire
			fi, cold, err := az.acquireFI(dep)
			want := oracle.acquire()
			switch {
			case want != nil && (err != nil || cold || fi.num != want.num):
				t.Fatalf("seed %d step %d: acquired %v (cold %v, %v), oracle instance %d", seed, step, fi, cold, err, want.num)
			case want == nil && err == nil && !cold:
				t.Fatalf("seed %d step %d: reused instance %d, oracle has none idle", seed, step, fi.num)
			case err != nil && !errors.Is(err, ErrSaturated):
				t.Fatal(err)
			case err == nil && cold:
				shadow[fi] = &shadowFI{num: fi.num, busy: true}
			}
			if err == nil {
				busy = append(busy, fi)
				acquired++
				if !cold {
					warm++
				}
			}
		case op < 11 && len(busy) > 0: // release
			i := draw(len(busy))
			fi := busy[i]
			busy = slices.Delete(busy, i, i+1)
			az.releaseFI(fi)
			oracle.release(shadow[fi])
			arm(fi)
		case op < 12 && len(busy) > 0: // a probe declines and tears down
			i := draw(len(busy))
			fi := busy[i]
			busy = slices.Delete(busy, i, i+1)
			az.destroyFI(fi)
			shadow[fi].destroyed = true
		case op < 13: // pre-warm one instance and let it initialize
			before := az.fiSeq
			if n, _, err := az.PreWarm("fn", 1, "acct"); err != nil || n != 1 {
				continue
			}
			if err := env.RunFor(time.Minute); err != nil {
				t.Fatal(err)
			}
			fi := dep.idleTail
			if fi == nil || fi.num != before+1 {
				t.Fatalf("seed %d step %d: pre-warmed instance %d is not the newest idle one", seed, step, before+1)
			}
			s := &shadowFI{num: fi.num, busy: true}
			shadow[fi] = s
			oracle.release(s)
			arm(fi)
		case op < 14: // move the floor, which re-arms every idle instance
			n := draw(6)
			before := lastSeq()
			if err := az.SetWarmFloor("fn", n); err != nil {
				t.Fatal(err)
			}
			oracle.floor = n
			// The re-arms drew the seqs after before, in idle-list order.
			idle := dep.idleFIs()
			if after := lastSeq(); after != before+1+uint64(len(idle)) {
				t.Fatalf("seed %d step %d: re-arming %d instances drew seqs %d..%d", seed, step, len(idle), before+2, after)
			}
			for i, fi := range idle {
				timers = append(timers, armedTimer{fi: fi, gen: shadow[fi].idleGen, seq: before + 2 + uint64(i)})
			}
		case len(timers) > 0: // a keep-alive timer fires
			i := draw(len(timers))
			r := timers[i]
			timers = slices.Delete(timers, i, i+1)
			if !timerStale(r.fi, r.seq) {
				az.expire(r.fi)
			}
			s := shadow[r.fi]
			wasLive := !s.destroyed
			oracle.expire(s, r.gen)
			if r.fi.destroyed != s.destroyed {
				t.Fatalf("seed %d step %d: instance %d destroyed %v by its timer, oracle %v", seed, step, s.num, r.fi.destroyed, s.destroyed)
			}
			if wasLive && s.destroyed {
				expired++
			}
		}
		want := oracle.idle()
		got := dep.idleFIs()
		if az.WarmIdle("fn") != len(want) || len(got) != len(want) {
			t.Fatalf("seed %d step %d: %d idle (list %d), oracle %d", seed, step, az.WarmIdle("fn"), len(got), len(want))
		}
		for i := range want {
			if got[i].num != want[i].num {
				t.Fatalf("seed %d step %d: idle instance %d is %d, oracle %d", seed, step, i, got[i].num, want[i].num)
			}
		}
		if filter != nil {
			timers = filter(step, timers, shadow)
		}
	}
	if acquired < 1000 || warm < 500 || expired < 100 {
		t.Fatalf("seed %d: %d acquired, %d warm, %d expired: the script barely exercised the pool", seed, acquired, warm, expired)
	}
}

// TestIdleListMatchesWarmSlice runs the idle-list script over eight seeds.
func TestIdleListMatchesWarmSlice(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		idleScript(t, seed, nil)
	}
}

// TestKeyedTimersVoidLikeGenerations: over the idle-list script's seeds,
// every armed keep-alive timer is void by its seq (timerStale, on the
// deployment's instances) exactly when it is void by the generation it was
// armed under (on the oracle's): after every step, for every timer armed
// and not yet fired. A timer void under both is set aside, as the lane
// drops it, and every thousand steps the set-aside ones are checked void
// still, under both: both predicates are monotone, which the lane needs.
func TestKeyedTimersVoidLikeGenerations(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		var void []armedTimer
		voided, live := 0, 0
		stale := func(r armedTimer, shadow map[*FI]*shadowFI) (bySeq, byGen bool) {
			s := shadow[r.fi]
			return timerStale(r.fi, r.seq), s.destroyed || s.busy || s.idleGen != r.gen
		}
		idleScript(t, seed, func(step int, timers []armedTimer, shadow map[*FI]*shadowFI) []armedTimer {
			kept := timers[:0]
			for _, r := range timers {
				bySeq, byGen := stale(r, shadow)
				if bySeq != byGen {
					t.Fatalf("seed %d step %d: instance %d's timer (gen %d, seq %d) void by seq %v, by gen %v", seed, step, r.fi.num, r.gen, r.seq, bySeq, byGen)
				}
				if bySeq {
					void = append(void, r)
					voided++
				} else {
					kept = append(kept, r)
				}
			}
			live = max(live, len(kept))
			if step%1000 == 999 {
				for _, r := range void {
					if bySeq, byGen := stale(r, shadow); !bySeq || !byGen {
						t.Fatalf("seed %d step %d: instance %d's void timer (gen %d, seq %d) came back: void by seq %v, by gen %v", seed, step, r.fi.num, r.gen, r.seq, bySeq, byGen)
					}
				}
			}
			return kept
		})
		if voided < 1000 || live < 20 {
			t.Fatalf("seed %d: %d timers voided, at most %d live at once: the script barely exercised the keys", seed, voided, live)
		}
	}
}

// TestIdleInstanceSizes pins what an idle instance costs: an FI in the
// 64-byte size class, which holds no name, and a keep-alive lane slot of
// 24 bytes, which holds no generation. A saturated zone holds tens of
// thousands of each.
func TestIdleInstanceSizes(t *testing.T) {
	if n := unsafe.Sizeof(FI{}); n > 64 {
		t.Errorf("an FI is %d bytes, want <= 64", n)
	}
	lane, _ := reflect.TypeOf(Cloud{}).FieldByName("expiry")
	q, _ := lane.Type.Elem().FieldByName("q")
	if n := q.Type.Elem().Size(); n != 24 {
		t.Errorf("a keep-alive lane slot (%v) is %d bytes, want 24", q.Type.Elem(), n)
	}
}
