package experiments

import "testing"

// TestStudyDirections runs each study behind EXPERIMENTS.md's ablation table
// at seed 0 and asserts the direction its row reports.
func TestStudyDirections(t *testing.T) {
	for _, c := range []struct {
		claim string
		run   func() (holds bool, got any, err error)
	}{
		{"tree and flat fan-out reach equal unique FIs, the tree with fewer client calls", func() (bool, any, error) {
			r, err := RunAblationFanout(0)
			return r.TreeUniqueFIs > 0 && r.TreeUniqueFIs == r.FlatUniqueFIs && r.TreeClientCalls < r.FlatClientCalls, r, err
		}},
		{"passive characterization saves at no sampling spend, polled pays for its polls", func() (bool, any, error) {
			r, err := RunAblationPassive(0)
			return r.PassiveSavings > 0 && r.PassiveSamplingUSD == 0 && r.PolledSamplingUSD > 0, r, err
		}},
		{"fresh daily characterizations save at least what a frozen day-1 profile does", func() (bool, any, error) {
			r, err := RunAblationStaleProfile(0)
			return r.FreshSavings >= r.StaleSavings && r.StaleSavings > 0, r, err
		}},
		{"focus-fastest pays between 1 and 5 retries per completion and still costs less than baseline", func() (bool, any, error) {
			r, err := RunRetryTradeoff(StudyConfig{Seed: 0})
			return r.RetriesPerCompletion >= 1 && r.RetriesPerCompletion <= 5 && r.HoldCostUSD > 0 && r.SavingsFrac > 0, r, err
		}},
	} {
		holds, got, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.claim, err)
		}
		if !holds {
			t.Errorf("%s: does not hold for %+v", c.claim, got)
		}
	}
}
