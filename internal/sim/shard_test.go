package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// buildRing wires a ping ring over the group: each shard schedules a local
// tick and forwards a token to the next shard with a delay of at least the
// lookahead. Every shard records its own execution log (one writer per
// slice, so parallel windows stay race-free).
func buildRing(g *Sharded, hops int) [][]string {
	n := g.NumShards()
	logs := make([][]string, n)
	la := g.Lookahead()
	var forward func(shard, hop int)
	forward = func(shard, hop int) {
		e := g.Shard(shard)
		logs[shard] = append(logs[shard], fmt.Sprintf("t=%v hop=%d", e.Elapsed(), hop))
		// Local bookkeeping at the same instant exercises intra-window
		// ordering alongside the cross-shard traffic.
		e.Schedule(0, func() {
			logs[shard] = append(logs[shard], fmt.Sprintf("t=%v local hop=%d", e.Elapsed(), hop))
		})
		if hop >= hops {
			return
		}
		next := (shard + 1) % n
		e.SendTo(g.Shard(next), la+time.Duration(hop%3)*time.Millisecond, func() {
			forward(next, hop+1)
		})
	}
	g.Control().Schedule(0, func() { forward(0, 0) })
	return logs
}

func TestShardedParallelMatchesSequential(t *testing.T) {
	run := func(sequential bool) [][]string {
		g := NewSharded(epoch, 4, time.Millisecond)
		g.SetSequential(sequential)
		logs := buildRing(g, 40)
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return logs
	}
	seq := run(true)
	par := run(false)
	par2 := run(false)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel trace diverged from sequential:\nseq: %v\npar: %v", seq, par)
	}
	if !reflect.DeepEqual(par, par2) {
		t.Fatalf("parallel replay diverged:\n1: %v\n2: %v", par, par2)
	}
	total := 0
	for _, l := range seq {
		total += len(l)
	}
	if total != 2*41 {
		t.Fatalf("expected %d log lines, got %d", 2*41, total)
	}
}

func TestShardedSendExactlyAtHorizon(t *testing.T) {
	// A send whose arrival lands exactly on the window end is legal: the
	// conservative check forbids arrivals strictly inside the window.
	g := NewSharded(epoch, 2, time.Millisecond)
	var arrived time.Duration
	g.Control().Schedule(0, func() {
		g.Control().SendTo(g.Shard(1), g.Lookahead(), func() {
			arrived = g.Shard(1).Elapsed()
		})
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if arrived != time.Millisecond {
		t.Fatalf("arrival at %v, want %v", arrived, time.Millisecond)
	}
}

func TestShardedConservativeViolation(t *testing.T) {
	g := NewSharded(epoch, 2, time.Millisecond)
	g.Control().Schedule(0, func() {
		g.Control().SendTo(g.Shard(1), 0, func() {})
	})
	err := g.Run()
	if err == nil || !strings.Contains(err.Error(), "determinism violation") {
		t.Fatalf("want determinism violation, got %v", err)
	}
}

func TestShardedDegenerateConfigs(t *testing.T) {
	// Zero shards clamps to one; non-positive lookahead clamps to the floor.
	g := NewSharded(epoch, 0, 0)
	if g.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", g.NumShards())
	}
	if g.Lookahead() != MinLookahead {
		t.Fatalf("Lookahead = %v, want %v", g.Lookahead(), MinLookahead)
	}
	// A one-shard group behaves exactly like a plain Env: SendTo to itself
	// is Schedule, and Run drains through the member dispatch.
	var order []int
	e := g.Control()
	e.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	e.Schedule(time.Millisecond, func() {
		order = append(order, 1)
		e.SendTo(e, 0, func() { order = append(order, 10) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 10, 2}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestShardedSendToForeignEngine(t *testing.T) {
	a := NewEnv(epoch)
	b := NewEnv(epoch)
	a.Schedule(0, func() { a.SendTo(b, time.Second, func() {}) })
	if err := a.Run(); err != errCrossEngine {
		t.Fatalf("want errCrossEngine, got %v", err)
	}
}

func TestShardedRunForHorizon(t *testing.T) {
	g := NewSharded(epoch, 2, time.Millisecond)
	var ran []string
	g.Control().Schedule(5*time.Millisecond, func() { ran = append(ran, "at-horizon") })
	g.Shard(1).Schedule(7*time.Millisecond, func() { ran = append(ran, "beyond") })
	if err := g.RunFor(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The event exactly at the horizon runs (matching the single-queue
	// engine); the later one stays queued; every clock sits at the horizon.
	if !reflect.DeepEqual(ran, []string{"at-horizon"}) {
		t.Fatalf("ran = %v", ran)
	}
	for i := 0; i < g.NumShards(); i++ {
		if got := g.Shard(i).Elapsed(); got != 5*time.Millisecond {
			t.Fatalf("shard %d elapsed = %v, want 5ms", i, got)
		}
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, []string{"at-horizon", "beyond"}) {
		t.Fatalf("after drain ran = %v", ran)
	}
}

func TestShardedElapsedAlignsOnDrain(t *testing.T) {
	g := NewSharded(epoch, 3, time.Millisecond)
	g.Shard(2).Schedule(9*time.Millisecond, func() {})
	g.Control().Schedule(time.Millisecond, func() {})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumShards(); i++ {
		if got := g.Shard(i).Elapsed(); got != 9*time.Millisecond {
			t.Fatalf("shard %d elapsed = %v, want 9ms", i, got)
		}
	}
}

func TestShardedFinishFastDrains(t *testing.T) {
	g := NewSharded(epoch, 2, time.Millisecond)
	logs := buildRing(g, 10)
	// FinishFast through a member must fan out to every shard and leave the
	// drain untouched — sharded groups never pace, so the flag is inert for
	// ordering but must still reach model code that consults it.
	g.Shard(1).FinishFast()
	if err := g.Control().Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumShards(); i++ {
		if !g.Shard(i).fastForward.Load() {
			t.Fatalf("shard %d fastForward not set", i)
		}
	}
	total := 0
	for _, l := range logs {
		total += len(l)
	}
	if total != 2*11 {
		t.Fatalf("expected %d log lines, got %d", 2*11, total)
	}
}

func TestShardedProcsAcrossShards(t *testing.T) {
	g := NewSharded(epoch, 2, time.Millisecond)
	server, client := g.Shard(1), g.Control()
	reply := NewEvent(client)
	request := NewEvent(server)
	server.Go("server", func(p *Proc) error {
		val := p.Wait(request)
		// Respond after a service time; the reply event lives on the
		// client shard and is triggered there by the delivered send.
		p.Sleep(3 * time.Millisecond)
		server.SendTo(client, g.Lookahead(), func() { reply.Trigger(val.(int) * 2) })
		return nil
	})
	var got int
	var at time.Duration
	client.Go("client", func(p *Proc) error {
		p.Sleep(2 * time.Millisecond)
		client.SendTo(server, g.Lookahead(), func() { request.Trigger(21) })
		got = p.Wait(reply).(int)
		at = client.Elapsed()
		return nil
	})
	if err := client.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("reply = %d, want 42", got)
	}
	// 2ms client sleep + 1ms send + 3ms service + 1ms reply.
	if at != 7*time.Millisecond {
		t.Fatalf("reply at %v, want 7ms", at)
	}
	if g.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", g.LiveProcs())
	}
}

func TestShardedFailureIsDeterministic(t *testing.T) {
	// Two shards fail inside the same window; the lowest-numbered shard's
	// failure must win regardless of which worker finished first.
	for trial := 0; trial < 10; trial++ {
		g := NewSharded(epoch, 3, time.Millisecond)
		g.Shard(2).Schedule(time.Millisecond, func() {
			g.Shard(2).Fail(fmt.Errorf("shard 2 exploded"))
		})
		g.Shard(1).Schedule(time.Millisecond, func() {
			g.Shard(1).Fail(fmt.Errorf("shard 1 exploded"))
		})
		err := g.Run()
		if err == nil || err.Error() != "shard 1 exploded" {
			t.Fatalf("trial %d: err = %v, want shard 1 exploded", trial, err)
		}
	}
}

func TestShardedRunPacedRejected(t *testing.T) {
	g := NewSharded(epoch, 2, time.Millisecond)
	if err := g.Control().RunPaced(1000, nil, nil); err == nil {
		t.Fatal("RunPaced on a sharded member should error")
	}
}

// TestShardedRaceStress drives many shards through many small windows with
// dense cross-shard traffic. Run under -race it exercises the barrier
// happens-before edges; the per-shard digests double as a replay check.
func TestShardedRaceStress(t *testing.T) {
	run := func() []uint64 {
		const shards = 8
		g := NewSharded(epoch, shards, time.Millisecond)
		digests := make([]uint64, shards)
		var hop func(shard, stride, depth int)
		hop = func(shard, stride, depth int) {
			e := g.Shard(shard)
			digests[shard] = digests[shard]*1099511628211 + uint64(e.Elapsed()) + uint64(depth)
			if depth == 0 {
				return
			}
			next := (shard + stride) % shards
			e.SendTo(g.Shard(next), g.Lookahead()+time.Duration(depth%5)*100*time.Microsecond, func() {
				hop(next, stride, depth-1)
			})
		}
		for s := 0; s < shards; s++ {
			shard, stride := s, s%3+1
			g.Shard(s).Schedule(time.Duration(s)*250*time.Microsecond, func() {
				hop(shard, stride, 60)
			})
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return digests
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("replay %d diverged: %v vs %v", i, got, first)
		}
	}
}
