package experiments

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updatePresets = flag.Bool("update-presets", false, "rewrite testdata/presets.golden")

// presetsGolden pins every experiment's two scales.
const presetsGolden = "testdata/presets.golden"

// TestPresetsGolden prints every experiment's preset at both scales, one
// "exN.scale.field=value" line per setting, and compares the lines with
// testdata/presets.golden. The replay digests run only the reduced scale
// and `make data-check` only EX-1..EX-5 at full scale, so this is what
// catches a typo in a full-scale preset of EX-6..EX-11. EX-6's line for
// its arms is the default ladder both scales run.
//
// After a deliberate change to a preset, regenerate with
//
//	go test ./internal/experiments/ -run PresetsGolden -update-presets
func TestPresetsGolden(t *testing.T) {
	type ex6Resolved struct {
		ex6Preset
		arms []EX6Arm
	}
	var b strings.Builder
	for _, e := range []struct {
		name          string
		full, reduced any
	}{
		{"ex1", ex1Full, ex1Reduced},
		{"ex2", ex2Full, ex2Reduced},
		{"ex3", ex3Full, ex3Reduced},
		{"ex4", ex4Full, ex4Reduced},
		{"ex5", ex5Full, ex5Reduced},
		{"ex6", ex6Resolved{ex6Full, DefaultEX6Arms()}, ex6Resolved{ex6Reduced, DefaultEX6Arms()}},
		{"ex7", ex7Full, ex7Reduced},
		{"ex8", ex8Full, ex8Reduced},
		{"ex9", ex9Full, ex9Reduced},
		{"ex10", ex10Full, ex10Reduced},
		{"ex11", ex11Full, ex11Reduced},
	} {
		for _, line := range presetLines(e.name+".full", e.full) {
			b.WriteString(line + "\n")
		}
		for _, line := range presetLines(e.name+".reduced", e.reduced) {
			b.WriteString(line + "\n")
		}
	}
	got := b.String()
	if *updatePresets {
		if err := os.WriteFile(presetsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(presetsGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for _, l := range gotLines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("preset line not in %s: %s", presetsGolden, l)
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(gotLines, l) {
			t.Errorf("%s line no preset prints: %s", presetsGolden, l)
		}
	}
}

// presetLines lists v's fields, those of embedded structs flattened in, as
// sorted "name.field=value" lines, field names lower-cased.
func presetLines(name string, v any) []string {
	var lines []string
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Anonymous && f.Type.Kind() == reflect.Struct {
				walk(v.Field(i))
				continue
			}
			lines = append(lines, fmt.Sprintf("%s.%s=%s", name, strings.ToLower(f.Name), showValue(v.Field(i))))
		}
	}
	walk(reflect.ValueOf(v))
	sort.Strings(lines)
	return lines
}

// showValue prints v without calling its methods, which reflection forbids
// on unexported fields: durations as time.Duration strings, pointers
// followed, map entries sorted.
func showValue(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return "nil"
		}
		return "&" + showValue(v.Elem())
	case reflect.Struct:
		parts := make([]string, v.NumField())
		for i := range parts {
			parts[i] = strings.ToLower(v.Type().Field(i).Name) + ":" + showValue(v.Field(i))
		}
		return "{" + strings.Join(parts, " ") + "}"
	case reflect.Slice:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = showValue(v.Index(i))
		}
		return "[" + strings.Join(parts, " ") + "]"
	case reflect.Map:
		var parts []string
		for it := v.MapRange(); it.Next(); {
			parts = append(parts, showValue(it.Key())+":"+showValue(it.Value()))
		}
		sort.Strings(parts)
		return "map[" + strings.Join(parts, " ") + "]"
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Type() == reflect.TypeOf(time.Duration(0)) {
			return time.Duration(v.Int()).String()
		}
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Float32, reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.String:
		return strconv.Quote(v.String())
	}
	panic("presetLines: unhandled kind " + v.Kind().String())
}

// TestConfigSurface pins the exported fields of EX1Config..EX11Config to
// the seed and the fields a skybench flag sets: a new field needs a second
// value that a scale or a flag uses (DESIGN.md §5), and a value only one
// scale varies belongs in that experiment's preset.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"EX1Config.Seed", "EX2Config.Seed", "EX3Config.Seed",
		"EX4Config.Seed", "EX4Config.Rounds",
		"EX5Config.Seed", "EX5Config.ProfileRuns", "EX5Config.Days",
		"EX6Config.Seed", "EX6Config.Arms",
		"EX7Config.Seed", "EX8Config.Seed", "EX9Config.Seed", "EX10Config.Seed",
		"EX11Config.Seed", "EX11Config.ProfileRuns",
	}
	var got []string
	for _, c := range []any{EX1Config{}, EX2Config{}, EX3Config{}, EX4Config{}, EX5Config{}, EX6Config{},
		EX7Config{}, EX8Config{}, EX9Config{}, EX10Config{}, EX11Config{}} {
		typ := reflect.TypeOf(c)
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				got = append(got, typ.Name()+"."+f.Name)
			}
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("exported config fields %v, want %v", got, want)
	}
}
