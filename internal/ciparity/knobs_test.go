package ciparity

import (
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
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

// knobSurface is the settable values of the serving and model configs and
// of the routing strategies: 74 exported fields. A field earns its place
// with two non-test callers that set different values (DESIGN.md §5); a
// value every caller leaves at its default is a named constant beside its
// reason, so a new field here needs that second caller, not just a test.
var knobSurface = []string{
	"admission.Config.EWMAAlpha", "admission.Config.Metrics", "admission.Config.PressureUtil",
	"admission.Config.Slots", "admission.Config.TargetUtil",

	"cloudsim.Options.HorizonDays", "cloudsim.Options.IntraCloudRTT", "cloudsim.Options.KeepAlive",
	"cloudsim.Options.Metrics", "cloudsim.Options.OnResponse", "cloudsim.Options.Quota",

	"core.Config.Catalog", "core.Config.CloudOpts", "core.Config.Epoch", "core.Config.Metrics",
	"core.Config.SamplerCfg", "core.Config.Seed", "core.Config.SkipMesh", "core.Config.StoreTTL",

	"faas.RetryPolicy.JitterFrac", "faas.RetryPolicy.MaxAttempts",

	"mesh.Config.AWSArchs", "mesh.Config.AWSMemoriesMB", "mesh.Config.DOMemoriesMB", "mesh.Config.IBMMemoriesMB",

	"refresh.Config.Cap", "refresh.Config.Cooldown", "refresh.Config.DriftThreshold",
	"refresh.Config.MaxAge", "refresh.Config.MinSamples", "refresh.Config.Mode", "refresh.Config.Polls",
	"refresh.Config.RatePerHour", "refresh.Config.TickEvery", "refresh.Config.Zones",

	"router.BurstSpec.Candidates", "router.BurstSpec.N", "router.BurstSpec.Resilience",
	"router.BurstSpec.Strategy", "router.BurstSpec.Workload",
	"router.Resilience.Hedge", "router.Resilience.NoBreaker",

	"router.Baseline.AZ", "router.CostAware.MemoryMB", "router.CostAware.Pricer",
	"router.FocusFastest.AZ", "router.LatencyBound.Client", "router.LatencyBound.Locator",
	"router.LatencyBound.MaxRTT", "router.RetrySlow.AZ",

	"sampler.Config.Branch", "sampler.Config.Endpoints", "sampler.Config.InterPollPause",
	"sampler.Config.PollSize", "sampler.Config.Prefix",

	"skyd.Config.Admission", "skyd.Config.Metrics", "skyd.Config.PumpEvery", "skyd.Config.Refresh",
	"skyd.Config.Runtime", "skyd.Config.Speedup", "skyd.Config.Tenants", "skyd.Config.WarmPool",

	"tenant.Config.Metrics",

	"warmpool.Config.Cap", "warmpool.Config.Floor", "warmpool.Config.Gamma", "warmpool.Config.Lead",
	"warmpool.Config.Mode", "warmpool.Config.RatePerHour", "warmpool.Config.Season",
	"warmpool.Config.TickEvery", "warmpool.Config.Window", "warmpool.Config.Zones",
}

// TestKnobSurface: the exported fields of the configs and strategies are
// exactly knobSurface.
func TestKnobSurface(t *testing.T) {
	want := slices.Clone(knobSurface)
	var got []string
	for _, c := range []any{
		admission.Config{}, cloudsim.Options{}, core.Config{}, faas.RetryPolicy{},
		mesh.Config{}, refresh.Config{}, router.BurstSpec{}, router.Resilience{}, sampler.Config{},
		skyd.Config{}, tenant.Config{}, warmpool.Config{},
		router.Baseline{}, router.Regional{}, router.RetrySlow{}, router.FocusFastest{},
		router.Hybrid{}, router.LatencyBound{}, router.CostAware{},
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
	if len(want) != 74 {
		t.Errorf("allow-list holds %d values; the audit left 74", len(want))
	}
}

// designKnobCount matches DESIGN.md §5's statement of the surface's size.
var designKnobCount = regexp.MustCompile("`TestKnobSurface` \\(`internal/ciparity/knobs_test.go`\\) pins the (\\d+) settable values")

// TestDocumentedKnobCount: the count DESIGN.md §5 states is the length of
// knobSurface, so removing or adding a field cannot leave the document
// describing another surface.
func TestDocumentedKnobCount(t *testing.T) {
	design := strings.Join(strings.Fields(repoFile(t, "DESIGN.md")), " ")
	m := designKnobCount.FindStringSubmatch(design)
	if m == nil {
		t.Fatalf("DESIGN.md states no knob count (a sentence matching %q)", designKnobCount)
	}
	if n, _ := strconv.Atoi(m[1]); n != len(knobSurface) {
		t.Errorf("DESIGN.md §5 says %d settable values; TestKnobSurface lists %d", n, len(knobSurface))
	}
}
