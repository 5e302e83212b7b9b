// Command skysample characterizes one availability zone with the paper's
// infrastructure sampling technique and prints the poll-by-poll trace.
//
// Usage:
//
//	skysample -az us-west-1a            # poll to saturation
//	skysample -az eu-north-1a -polls 6  # cheap fixed-poll characterization
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"skyfaas/internal/charact"
	"skyfaas/internal/core"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "skysample:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("skysample", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	az := fs.String("az", "us-west-1a", "availability zone to characterize")
	seed := fs.Uint64("seed", 42, "simulation seed")
	polls := fs.Int("polls", 0, "fixed poll count (0 = poll to saturation)")
	truth := fs.Bool("truth", false, "also print the simulator's ground-truth mix (evaluation only)")
	tracePath := fs.String("trace", "", "write every invocation as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *polls < 0 {
		return fmt.Errorf("-polls %d: may not be negative", *polls)
	}

	cfg := core.Config{Seed: *seed, SkipMesh: true}
	var rec *trace.Recorder
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		rec = trace.NewRecorder(w)
		cfg.CloudOpts.OnResponse = rec.Hook()
	}
	rt, err := core.New(cfg)
	if err != nil {
		return err
	}
	zone, ok := rt.Cloud().AZ(*az)
	if !ok {
		return fmt.Errorf("unknown AZ %q (try us-west-1a, eu-north-1a, us-east-2b, ...)", *az)
	}

	return rt.Do(func(p *sim.Proc) error {
		if err := rt.EnsureSamplerEndpoints(*az); err != nil {
			return err
		}
		var ch charact.Characterization
		var trail []sampler.PollResult
		var err error
		if *polls > 0 {
			ch, trail, err = rt.Sampler().CharacterizeQuick(p, *az, *polls)
		} else {
			ch, trail, err = rt.Sampler().Characterize(p, *az)
		}
		if err != nil {
			return err
		}
		printTrace(trail)
		fmt.Printf("\ncharacterization of %s (%d polls, %d unique FIs, %s):\n  %s\n",
			*az, ch.Polls, ch.Samples, tablefmt.USD(ch.CostUSD), ch.Dist())
		if rec != nil {
			if rec.Err() != nil {
				return rec.Err()
			}
			fmt.Printf("\ntrace: %d invocation records written to %s\n", rec.Count(), *tracePath)
		}
		if *truth {
			truthDist := make(charact.Dist)
			for k, v := range zone.TrueMix() {
				truthDist[k] = v
			}
			fmt.Printf("\nsimulator ground truth (never visible to the sampler):\n  %s\n  APE vs characterization: %.2f%%\n",
				truthDist, charact.APE(ch.Dist(), truthDist))
		}
		return nil
	})
}

func printTrace(trail []sampler.PollResult) {
	t := tablefmt.New("poll", "endpoint", "requested", "newFIs", "failed", "failFrac", "cost")
	for i, pr := range trail {
		t.Row(i+1, pr.Endpoint, pr.Requested, pr.NewFIs, pr.Failed,
			tablefmt.Pct(pr.FailFrac()), tablefmt.USD(pr.CostUSD))
	}
	fmt.Print(t.String())
}
