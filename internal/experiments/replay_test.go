package experiments

import "testing"

// TestExperimentsReplay is the replay contract for the experiments without
// a determinism test of their own: EX-1..EX-5, each run twice on its
// reduced config at one seed, must render byte-identical output — a run is
// a pure function of its seed (§3.5). EX-6..EX-11 pin their own replay.
func TestExperimentsReplay(t *testing.T) {
	cases := []struct {
		name string
		run  func() (string, error)
	}{
		{"EX1", func() (string, error) { return rendered(RunEX1(EX1Config{Seed: 5}.Reduced())) }},
		{"EX2", func() (string, error) { return rendered(RunEX2(EX2Config{Seed: 5}.Reduced())) }},
		{"EX3", func() (string, error) { return rendered(RunEX3(EX3Config{Seed: 5}.Reduced())) }},
		{"EX4", func() (string, error) { return rendered(RunEX4(EX4Config{Seed: 5}.Reduced())) }},
		{"EX5", func() (string, error) { return rendered(RunEX5(EX5Config{Seed: 5}.Reduced())) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			first, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			again, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if first != again {
				t.Errorf("two runs of the same config diverged\n--- first ---\n%s\n--- again ---\n%s", first, again)
			}
		})
	}
}

// rendered returns a result's rendered tables, or the error that stopped
// the run.
func rendered[R interface{ Render() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}
