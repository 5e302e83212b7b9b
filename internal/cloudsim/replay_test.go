package cloudsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// regionDigest drives traffic into zones of five regions and folds every
// response — cold start, placement, billing — into a transcript, grouped by
// target zone.
func regionDigest(t *testing.T) string {
	t.Helper()
	env := sim.NewEnv(testEpoch)
	c := New(env, 42, DefaultCatalog(), Options{HorizonDays: 1})
	zones := []string{"us-west-1a", "us-east-2a", "eu-north-1a", "sa-east-1a", "ap-northeast-1a"}
	for _, z := range zones {
		if _, err := c.Deploy(z, "fn", DeployConfig{
			MemoryMB: 2048,
			Behavior: WorkBehavior{Workload: workload.Zipper},
		}); err != nil {
			t.Fatal(err)
		}
	}
	lines := make(map[string][]string)
	for round := 0; round < 6; round++ {
		for i, z := range zones {
			z, i, round := z, i, round
			env.Schedule(time.Duration(round*200+i*10)*time.Millisecond, func() {
				c.StartInvoke(Request{Account: "acct", AZ: z, Function: "fn"}, func(resp Response) {
					errStr := "ok"
					if resp.Err != nil {
						errStr = resp.Err.Error()
					}
					lines[z] = append(lines[z], fmt.Sprintf(
						"%s r%d %s cold=%t fi=%d cpu=%v billed=%.3f cost=%.9f at=%s",
						z, round, errStr, resp.Cold, resp.Profile.Instance, resp.CPU,
						resp.BilledMS, resp.CostUSD, env.Now().Format(time.RFC3339Nano)))
				})
			})
		}
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, z := range zones {
		for _, l := range lines[z] {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "meter=%s inflight=%d\n", c.Meter().String(), c.regionBy["us-west-1"].accounts["acct"].inflight)
	return b.String()
}

// TestMultiRegionTrafficReplays: invocation traffic across five regions —
// cold starts, warm reuse, placement, billing — replays byte-identically on
// the same seed.
func TestMultiRegionTrafficReplays(t *testing.T) {
	first := regionDigest(t)
	if !strings.Contains(first, " ok ") {
		t.Fatalf("no successful invocations:\n%s", first)
	}
	if again := regionDigest(t); again != first {
		t.Errorf("replay diverged\n--- first ---\n%s--- again ---\n%s", first, again)
	}
}
