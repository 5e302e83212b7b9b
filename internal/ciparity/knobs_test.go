package ciparity

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"skyfaas/internal/admission"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/faas"
	"skyfaas/internal/mesh"
	"skyfaas/internal/refresh"
	"skyfaas/internal/router"
	"skyfaas/internal/sampler"
	"skyfaas/internal/skyd"
	"skyfaas/internal/tenant"
	"skyfaas/internal/warmpool"
)

// TestKnobSurface pins the settable values of the serving and model
// configs: 71 exported fields. A field earns its place with two non-test
// callers that set different values (DESIGN.md §5); a value every caller
// leaves at its default is a named constant beside its reason, so a new
// field here needs that second caller, not just a test.
func TestKnobSurface(t *testing.T) {
	want := []string{
		"admission.Config.EWMAAlpha", "admission.Config.Metrics", "admission.Config.PressureUtil",
		"admission.Config.Slots", "admission.Config.TargetUtil",

		"cloudsim.Options.HorizonDays", "cloudsim.Options.IntraCloudRTT", "cloudsim.Options.KeepAlive",
		"cloudsim.Options.Metrics", "cloudsim.Options.OnResponse", "cloudsim.Options.Quota",

		"core.Config.Catalog", "core.Config.CloudOpts", "core.Config.Epoch", "core.Config.Metrics",
		"core.Config.SamplerCfg", "core.Config.Seed", "core.Config.SkipMesh", "core.Config.StoreTTL",

		"faas.RetryPolicy.BaseBackoff", "faas.RetryPolicy.JitterFrac", "faas.RetryPolicy.MaxAttempts",

		"mesh.Config.AWSArchs", "mesh.Config.AWSMemoriesMB", "mesh.Config.DOMemoriesMB", "mesh.Config.IBMMemoriesMB",

		"refresh.Config.Cap", "refresh.Config.Cooldown", "refresh.Config.DriftThreshold",
		"refresh.Config.MaxAge", "refresh.Config.MinSamples", "refresh.Config.Mode", "refresh.Config.Polls",
		"refresh.Config.RatePerHour", "refresh.Config.TickEvery", "refresh.Config.Zones",

		"router.BurstSpec.Candidates", "router.BurstSpec.N", "router.BurstSpec.Resilience",
		"router.BurstSpec.Strategy", "router.BurstSpec.Workload",
		"router.HedgePolicy.After", "router.HedgePolicy.Max",
		"router.Resilience.Failover", "router.Resilience.Hedge", "router.Resilience.NoBreaker",
		"router.Resilience.Retry",

		"sampler.Config.Branch", "sampler.Config.Endpoints", "sampler.Config.InterPollPause",
		"sampler.Config.PollSize", "sampler.Config.Prefix",

		"skyd.Config.Admission", "skyd.Config.Metrics", "skyd.Config.PumpEvery", "skyd.Config.Refresh",
		"skyd.Config.Runtime", "skyd.Config.Speedup", "skyd.Config.Tenants", "skyd.Config.WarmPool",

		"tenant.Config.Metrics",

		"warmpool.Config.Cap", "warmpool.Config.Floor", "warmpool.Config.Gamma", "warmpool.Config.Lead",
		"warmpool.Config.Mode", "warmpool.Config.RatePerHour", "warmpool.Config.Season",
		"warmpool.Config.TickEvery", "warmpool.Config.Window", "warmpool.Config.Zones",
	}
	var got []string
	for _, c := range []any{
		admission.Config{}, cloudsim.Options{}, core.Config{}, faas.RetryPolicy{},
		mesh.Config{}, refresh.Config{}, router.BurstSpec{}, router.HedgePolicy{}, router.Resilience{}, sampler.Config{},
		skyd.Config{}, tenant.Config{}, warmpool.Config{},
	} {
		typ := reflect.TypeOf(c)
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				got = append(got, typ.String()+"."+f.Name)
			}
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("settable values (%d):\n%v\nwant (%d):\n%v", len(got), got, len(want), want)
	}
	if len(want) != 71 {
		t.Errorf("allow-list holds %d values; the audit left 71", len(want))
	}
}
