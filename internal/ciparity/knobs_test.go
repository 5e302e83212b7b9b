package ciparity

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
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
	"skyfaas/internal/lint"
	"skyfaas/internal/load"
	"skyfaas/internal/mesh"
	"skyfaas/internal/refresh"
	"skyfaas/internal/router"
	"skyfaas/internal/sampler"
	"skyfaas/internal/skyd"
	"skyfaas/internal/tenant"
	"skyfaas/internal/warmpool"
)

// knobSurface is the settable values of the serving and model configs and
// of the routing strategies: 71 exported fields. A field earns its place
// with two non-test callers that set different values (DESIGN.md §5); a
// value every caller leaves at its default is a named constant beside its
// reason, so a new field here needs that second caller, not just a test.
var knobSurface = []string{
	"admission.Config.Metrics", "admission.Config.Slots", "admission.Config.TargetUtil",

	"cloudsim.Options.HorizonDays", "cloudsim.Options.IntraCloudRTT", "cloudsim.Options.KeepAlive",
	"cloudsim.Options.Metrics", "cloudsim.Options.OnResponse", "cloudsim.Options.Quota",

	"core.Config.Catalog", "core.Config.CloudOpts", "core.Config.Epoch", "core.Config.Metrics",
	"core.Config.SamplerCfg", "core.Config.Seed", "core.Config.SkipMesh", "core.Config.StoreTTL",

	"faas.RetryPolicy.JitterFrac", "faas.RetryPolicy.MaxAttempts",

	"load.Schedule.BaseRPS", "load.Schedule.Duration", "load.Schedule.Pattern",
	"load.Schedule.PeakRPS", "load.Schedule.Period",

	"mesh.Config.Minimal",

	"refresh.Config.Cap", "refresh.Config.Cooldown", "refresh.Config.DriftThreshold",
	"refresh.Config.MaxAge", "refresh.Config.MinSamples", "refresh.Config.Mode",
	"refresh.Config.RatePerHour", "refresh.Config.Zones",

	"router.BurstSpec.Candidates", "router.BurstSpec.N", "router.BurstSpec.Resilience",
	"router.BurstSpec.Strategy", "router.BurstSpec.Workload",
	"router.Resilience.Hedge", "router.Resilience.NoBreaker",

	"router.Baseline.AZ", "router.CostAware.MemoryMB", "router.CostAware.Pricer",
	"router.FocusFastest.AZ", "router.LatencyBound.Client", "router.LatencyBound.Locator",
	"router.LatencyBound.MaxRTT", "router.RetrySlow.AZ",

	"sampler.Config.Branch", "sampler.Config.Endpoints", "sampler.Config.InterPollPause",
	"sampler.Config.PollSize", "sampler.Config.Prefix",

	"skyd.Config.Admission", "skyd.Config.PumpEvery", "skyd.Config.Refresh",
	"skyd.Config.Runtime", "skyd.Config.Speedup", "skyd.Config.Tenants", "skyd.Config.WarmPool",

	"tenant.Config.Metrics",

	"warmpool.Config.Cap", "warmpool.Config.Floor", "warmpool.Config.Gamma", "warmpool.Config.Lead",
	"warmpool.Config.Mode", "warmpool.Config.RatePerHour", "warmpool.Config.Season",
	"warmpool.Config.TickEvery", "warmpool.Config.Window", "warmpool.Config.Zones",
}

// knobExempt names the values of knobSurface that no shipped code writes,
// each with the reason it stays settable.
var knobExempt = map[string]string{
	"core.Config.Catalog": "tests in three packages build small worlds through it, and sky.New's doc offers it to library users",
}

// knobTypes are the configs and strategies whose exported fields make up
// knobSurface.
var knobTypes = []any{
	admission.Config{}, cloudsim.Options{}, core.Config{}, faas.RetryPolicy{}, load.Schedule{},
	mesh.Config{}, refresh.Config{}, router.BurstSpec{}, router.Resilience{}, sampler.Config{},
	skyd.Config{}, tenant.Config{}, warmpool.Config{},
	router.Baseline{}, router.Regional{}, router.RetrySlow{}, router.FocusFastest{},
	router.Hybrid{}, router.LatencyBound{}, router.CostAware{},
}

// TestKnobSurface: the exported fields of knobTypes are exactly
// knobSurface, and each has a shipped writer: a keyed composite-literal
// element or an assignment to the field, in non-test code of the module or
// of bench/, outside examples/ and outside a withDefaults method. A field
// only a default writes is a constant in disguise. The one exemption is
// knobExempt's, and it must still lack a writer.
func TestKnobSurface(t *testing.T) {
	want := slices.Clone(knobSurface)
	var got []string
	for _, c := range knobTypes {
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

	writers := knobWriters(t)
	for _, k := range knobSurface {
		_, exempt := knobExempt[k]
		switch w := writers[k]; {
		case exempt && len(w) > 0:
			t.Errorf("%s is exempt as unwritten, but %s writes it: drop the exemption", k, w[0])
		case !exempt && len(w) == 0:
			t.Errorf("%s has no shipped writer outside withDefaults: make it a named constant", k)
		}
	}
	for k := range knobExempt {
		if !slices.Contains(knobSurface, k) {
			t.Errorf("exemption %s names no value of knobSurface", k)
		}
	}
}

// knobWriters maps each knobSurface value to the positions that write it
// in the module's non-test code (bench/ included), leaving out examples/
// and withDefaults methods.
func knobWriters(t *testing.T) map[string][]string {
	t.Helper()
	mod, err := lint.Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make(map[string]*lint.Package, len(mod.Pkgs))
	for _, p := range mod.Pkgs {
		pkgs[p.Path] = p
	}
	names := make(map[*types.Var]string)
	for _, c := range knobTypes {
		typ := reflect.TypeOf(c)
		p := pkgs[typ.PkgPath()]
		if p == nil {
			t.Fatalf("%s: package %s not loaded", typ, typ.PkgPath())
		}
		for _, f := range reflect.VisibleFields(typ) {
			if !f.IsExported() {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(p.Types.Scope().Lookup(typ.Name()).Type(), true, p.Types, f.Name)
			v, ok := obj.(*types.Var)
			if !ok {
				t.Fatalf("%s.%s: no such field in the loaded module", typ, f.Name)
			}
			names[v] = typ.String() + "." + f.Name
		}
	}
	writers := make(map[string][]string)
	note := func(obj types.Object, at token.Pos) {
		if v, ok := obj.(*types.Var); ok && names[v] != "" {
			writers[names[v]] = append(writers[names[v]], mod.Fset.Position(at).String())
		}
	}
	for _, p := range mod.Pkgs {
		if strings.HasPrefix(p.Path, mod.Path+"/examples/") {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					return n.Recv == nil || n.Name.Name != "withDefaults"
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						note(p.Info.Uses[key], key.Pos())
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							note(p.Info.Uses[sel.Sel], sel.Pos())
						}
					}
				}
				return true
			})
		}
	}
	return writers
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
