package sampler_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/saaf"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
)

// TestFreshCountsAgreeWithUUIDDedupe checks the sampler's dedupe, which
// runs on the instance number a report carries, against a dedupe by the
// instance's name, the UUID a report carries on the wire: over five seeds
// and every zone of the reduced world, each poll's Fresh counts must equal
// a name-set dedupe of the same poll's reports. The sampler's bitmap is as
// small as the zone's instance count only because a zone numbers its
// instances densely from 1, which the test checks too: the sampler's
// endpoints are the only functions in the zone and every instance they get
// reports, so the numbers sighted in a zone are exactly 1..n. The sampler
// cycles two endpoints instead of the reduced experiments' sixty, so the
// third and fourth polls land on instances the first two left warm and the
// dedupe has repeats to drop, and polls the paper's 1,000 requests, so a
// zone numbers thousands.
func TestFreshCountsAgreeWithUUIDDedupe(t *testing.T) {
	const polls = 4
	cfg := sampler.Config{Endpoints: 2, PollSize: 1000, Branch: 10, InterPollPause: 500 * time.Millisecond}
	epoch := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	reports, repeats, most := 0, 0, 0
	for seed := uint64(1); seed <= 5; seed++ {
		rt, err := core.New(core.Config{
			Seed: seed, Epoch: epoch, SkipMesh: true,
			SamplerCfg: cfg, CloudOpts: cloudsim.Options{HorizonDays: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The name dedupe of each poll of the zone being characterized,
		// built from the reports the poll hands the hook.
		var (
			az     string
			want   []charact.Counts
			seen   map[string]bool
			maxNum int
		)
		rt.Sampler().OnReports(func(reps []saaf.Report) {
			fresh := charact.Counts{}
			for _, rep := range reps {
				reports++
				maxNum = max(maxNum, rep.Instance)
				name := string(cloudsim.AppendInstanceID(nil, az, rep.Instance))
				if seen[name] {
					repeats++
					continue
				}
				seen[name] = true
				fresh.Add(rep.Kind)
			}
			want = append(want, fresh)
		})
		err = rt.Do(func(p *sim.Proc) error {
			for _, region := range rt.Cloud().Regions() {
				for _, zone := range region.AZs() {
					az = zone.Name()
					if err := rt.EnsureSamplerEndpoints(az); err != nil {
						return err
					}
					want, seen, maxNum = nil, map[string]bool{}, 0
					_, trail, err := rt.Sampler().CharacterizeQuick(p, az, polls)
					if err != nil {
						return err
					}
					if len(want) != len(trail) {
						return fmt.Errorf("seed %d %s: %d polls reported for a trail of %d", seed, az, len(want), len(trail))
					}
					for i, pr := range trail {
						if !reflect.DeepEqual(pr.Fresh, want[i]) || pr.NewFIs != want[i].Total() {
							t.Errorf("seed %d %s poll %d: Fresh %v (%d new), name dedupe %v", seed, az, i, pr.Fresh, pr.NewFIs, want[i])
						}
					}
					if maxNum != len(seen) {
						return fmt.Errorf("seed %d %s: %d instances sighted, numbered up to %d", seed, az, len(seen), maxNum)
					}
					most = max(most, len(seen))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if repeats == 0 {
		t.Fatalf("no instance was sighted twice in %d reports: the comparison proves nothing", reports)
	}
	t.Logf("%d reports, %d repeat sightings, up to %d instances in a zone", reports, repeats, most)
}
