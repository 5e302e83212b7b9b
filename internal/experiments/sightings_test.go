package experiments

import (
	"reflect"
	"testing"

	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/sim"
)

// TestFreshCountsAgreeWithUUIDDedupe checks the sampler's dedupe, which
// runs on the instance number a report carries, against the dedupe by
// UUID string it replaced: over five seeds and every zone of the reduced
// world, each poll's Fresh counts must equal a UUID-set dedupe of the same
// trail. The two agree only because a zone numbers its instances densely
// and one-to-one with their UUIDs, which the test checks too. The sampler
// cycles two endpoints instead of sixty, so the third and fourth polls land
// on instances the first two left warm and the dedupe has repeats to drop,
// and polls the paper's 1,000 requests, so a zone numbers thousands.
func TestFreshCountsAgreeWithUUIDDedupe(t *testing.T) {
	const polls = 4
	cfg := reducedSampler
	cfg.Endpoints, cfg.PollSize = 2, 1000
	reports, repeats, most := 0, 0, 0
	for seed := uint64(1); seed <= 5; seed++ {
		err := inWorld(core.Config{Seed: seed, SamplerCfg: cfg, CloudOpts: cloudsim.Options{HorizonDays: 2}}, func(rt *core.Runtime, p *sim.Proc) error {
			for _, region := range rt.Cloud().Regions() {
				for _, zone := range region.AZs() {
					az := zone.Name()
					if err := rt.EnsureSamplerEndpoints(az); err != nil {
						return err
					}
					_, trail, err := rt.Sampler().CharacterizeQuick(p, az, polls)
					if err != nil {
						return err
					}
					seen := map[string]bool{}
					uuidOf := map[int]string{}
					for i, pr := range trail {
						want := charact.Counts{}
						for _, rep := range pr.Reports {
							reports++
							if u, ok := uuidOf[rep.Instance]; ok && u != rep.UUID {
								t.Fatalf("seed %d %s: instance %d is both %s and %s", seed, az, rep.Instance, u, rep.UUID)
							}
							uuidOf[rep.Instance] = rep.UUID
							if seen[rep.UUID] {
								repeats++
								continue
							}
							seen[rep.UUID] = true
							want.Add(rep.Kind)
						}
						if !reflect.DeepEqual(pr.Fresh, want) || pr.NewFIs != want.Total() {
							t.Errorf("seed %d %s poll %d: Fresh %v (%d new), UUID dedupe %v", seed, az, i, pr.Fresh, pr.NewFIs, want)
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
