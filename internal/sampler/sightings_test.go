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
// runs on the instance number a report carries, against the dedupe by
// UUID string it replaced: over five seeds and every zone of the reduced
// world, each poll's Fresh counts must equal a UUID-set dedupe of the same
// poll's reports. The two agree only because a zone numbers its instances
// densely and one-to-one with their UUIDs, which the test checks too. The
// sampler cycles two endpoints instead of the reduced experiments' sixty,
// so the third and fourth polls land on instances the first two left warm
// and the dedupe has repeats to drop, and polls the paper's 1,000
// requests, so a zone numbers thousands.
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
		// The UUID dedupe of each poll of the zone being characterized,
		// built from the reports the poll hands the hook.
		var (
			want   []charact.Counts
			seen   map[string]bool
			uuidOf map[int]string
			numOf  map[string]int
			bad    error
		)
		rt.Sampler().OnReports(func(reps []saaf.Report) {
			fresh := charact.Counts{}
			for _, rep := range reps {
				reports++
				if u, ok := uuidOf[rep.Instance]; ok && u != rep.UUID && bad == nil {
					bad = fmt.Errorf("instance %d is both %s and %s", rep.Instance, u, rep.UUID)
				}
				if n, ok := numOf[rep.UUID]; ok && n != rep.Instance && bad == nil {
					bad = fmt.Errorf("%s is both instance %d and %d", rep.UUID, n, rep.Instance)
				}
				uuidOf[rep.Instance], numOf[rep.UUID] = rep.UUID, rep.Instance
				if seen[rep.UUID] {
					repeats++
					continue
				}
				seen[rep.UUID] = true
				fresh.Add(rep.Kind)
			}
			want = append(want, fresh)
		})
		err = rt.Do(func(p *sim.Proc) error {
			for _, region := range rt.Cloud().Regions() {
				for _, zone := range region.AZs() {
					az := zone.Name()
					if err := rt.EnsureSamplerEndpoints(az); err != nil {
						return err
					}
					want, seen, uuidOf, numOf = nil, map[string]bool{}, map[int]string{}, map[string]int{}
					_, trail, err := rt.Sampler().CharacterizeQuick(p, az, polls)
					if err != nil {
						return err
					}
					if bad != nil {
						return fmt.Errorf("seed %d %s: %w", seed, az, bad)
					}
					if len(want) != len(trail) {
						return fmt.Errorf("seed %d %s: %d polls reported for a trail of %d", seed, az, len(want), len(trail))
					}
					for i, pr := range trail {
						if !reflect.DeepEqual(pr.Fresh, want[i]) || pr.NewFIs != want[i].Total() {
							t.Errorf("seed %d %s poll %d: Fresh %v (%d new), UUID dedupe %v", seed, az, i, pr.Fresh, pr.NewFIs, want[i])
						}
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
