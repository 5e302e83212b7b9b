package sim

import (
	"testing"
	"time"
)

// TestFinishFastDrainsPacedRun proves the shutdown knob: a paced run whose
// queue stretches hours of virtual time into minutes of wall time returns
// almost immediately once FinishFast lands, without dropping events.
func TestFinishFastDrainsPacedRun(t *testing.T) {
	env := NewEnv(epoch)
	fired := 0
	for h := 1; h <= 48; h++ {
		env.Schedule(time.Duration(h)*time.Hour, func() { fired++ })
	}
	// speedup 3600: one virtual hour per wall second — 48s if fully paced.
	go func() {
		time.Sleep(50 * time.Millisecond)
		env.FinishFast()
	}()
	start := time.Now()
	if err := env.RunPaced(3600, nil, nil); err != nil {
		t.Fatal(err)
	}
	if fired != 48 {
		t.Fatalf("fired %d events, want all 48", fired)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("paced run took %v after FinishFast, want prompt drain", wall)
	}
}

// TestFinishFastBeforeRun applies when set ahead of the run, too.
func TestFinishFastBeforeRun(t *testing.T) {
	env := NewEnv(epoch)
	fired := false
	env.Schedule(10*time.Hour, func() { fired = true })
	env.FinishFast()
	start := time.Now()
	if err := env.RunPaced(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !fired || time.Since(start) > time.Second {
		t.Fatalf("fired=%v in %v; want immediate unpaced drain", fired, time.Since(start))
	}
}
