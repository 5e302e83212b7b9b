// Package cpu catalogs the processor types observed behind serverless
// platforms in the paper (Fig. 2) and renders/parses the /proc/cpuinfo view
// a function instance sees.
//
// The catalog is the ground truth the rest of the system must *discover*:
// only the saaf profiler is allowed to look at a host's cpuinfo, exactly as
// the real SAAF tool infers hardware from inside a function instance.
package cpu

import (
	"fmt"
	"slices"
	"strings"
)

// Arch is an instruction-set architecture offered by a FaaS platform.
type Arch int

const (
	// X86 is the x86_64 architecture.
	X86 Arch = iota + 1
	// ARM is the arm64 (Graviton) architecture.
	ARM
)

// String returns the platform-facing architecture name.
func (a Arch) String() string {
	switch a {
	case X86:
		return "x86_64"
	case ARM:
		return "arm64"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Kind identifies a processor model observed on a serverless platform.
type Kind int

// The catalog. AWS Lambda exposes four x86 CPU types (three Intel Xeons at
// 2.5/2.9/3.0 GHz and one AMD EPYC) plus Graviton for arm64 deployments;
// IBM Code Engine exposes two Cascade Lake Xeons; DigitalOcean Functions
// exposes two Xeons (Fig. 2, §4.2).
const (
	Xeon25       Kind = iota + 1 // Intel Xeon @ 2.50GHz — most prevalent on Lambda
	Xeon29                       // Intel Xeon @ 2.90GHz
	Xeon30                       // Intel Xeon @ 3.00GHz — fastest for most workloads
	EPYC                         // AMD EPYC — rare, slowest for compute-bound work
	Graviton                     // AWS Graviton2 (arm64 deployments only)
	IBMCascade24                 // Intel Cascade Lake @ 2.40GHz (IBM Code Engine)
	IBMCascade25                 // Intel Cascade Lake @ 2.50GHz (IBM Code Engine)
	DOXeon26                     // Intel Xeon @ 2.60GHz (DigitalOcean Functions)
	DOXeon27                     // Intel Xeon @ 2.70GHz (DigitalOcean Functions)

	numKinds = int(DOXeon27)
)

// Kinds lists every catalogued processor in a stable order.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds)
	for k := Xeon25; int(k) <= numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Info describes a catalogued processor.
type Info struct {
	Kind     Kind
	Vendor   string  // cpuinfo vendor_id
	Model    string  // cpuinfo "model name" string
	ClockGHz float64 // nominal clock as advertised in the model name
	Arch     Arch
}

// catalog is indexed by Kind; entry 0 is no kind.
var catalog = [numKinds + 1]Info{
	Xeon25:       {Xeon25, "GenuineIntel", "Intel(R) Xeon(R) Processor @ 2.50GHz", 2.50, X86},
	Xeon29:       {Xeon29, "GenuineIntel", "Intel(R) Xeon(R) Processor @ 2.90GHz", 2.90, X86},
	Xeon30:       {Xeon30, "GenuineIntel", "Intel(R) Xeon(R) Processor @ 3.00GHz", 3.00, X86},
	EPYC:         {EPYC, "AuthenticAMD", "AMD EPYC", 2.65, X86},
	Graviton:     {Graviton, "ARM", "AWS Graviton2", 2.50, ARM},
	IBMCascade24: {IBMCascade24, "GenuineIntel", "Intel(R) Xeon(R) Cascade Lake @ 2.40GHz", 2.40, X86},
	IBMCascade25: {IBMCascade25, "GenuineIntel", "Intel(R) Xeon(R) Cascade Lake @ 2.50GHz", 2.50, X86},
	DOXeon26:     {DOXeon26, "GenuineIntel", "Intel(R) Xeon(R) CPU @ 2.60GHz", 2.60, X86},
	DOXeon27:     {DOXeon27, "GenuineIntel", "Intel(R) Xeon(R) CPU @ 2.70GHz", 2.70, X86},
}

// Lookup returns the catalog entry for k.
func Lookup(k Kind) (Info, bool) {
	if !k.Valid() {
		return Info{}, false
	}
	return catalog[k], true
}

// MustLookup returns the catalog entry for k and panics if k is not
// catalogued; use only with compile-time-known kinds.
func MustLookup(k Kind) Info {
	if !k.Valid() {
		panic(fmt.Sprintf("cpu: unknown kind %d", int(k)))
	}
	return catalog[k]
}

// String returns a short stable label used in tables and figures,
// e.g. "Xeon 2.50GHz" or "AMD EPYC".
func (k Kind) String() string {
	switch {
	case !k.Valid():
		return fmt.Sprintf("Kind(%d)", int(k))
	case k == EPYC:
		return "AMD EPYC"
	case k == Graviton:
		return "Graviton2"
	default:
		return fmt.Sprintf("Xeon %.2fGHz", catalog[k].ClockGHz)
	}
}

// Valid reports whether k is a catalogued processor kind.
func (k Kind) Valid() bool { return k >= 1 && int(k) <= numKinds }

// maxInterned is the largest guest size whose cpuinfo text is prebuilt: the
// simulated platforms size a guest at one to six vCPUs, so every text the
// simulation hands out comes from the table.
const maxInterned = 6

// cpuinfoTexts holds CPUInfo(k, v) for every catalogued kind and
// 1 <= v <= maxInterned, and interned the same texts with what each parses
// to, sorted by length. Both are filled once at package initialization and
// only read afterwards, so the per-invocation render is an index read and
// its parse a search of interned, both allocation-free and safe from any
// goroutine.
var (
	cpuinfoTexts [numKinds + 1][maxInterned + 1]string
	interned     = make([]internedText, 0, numKinds*maxInterned)
)

type internedText struct {
	text  string
	kind  Kind
	vcpus int
}

func init() {
	for k := Kind(1); k.Valid(); k++ {
		for v := 1; v <= maxInterned; v++ {
			text := renderCPUInfo(catalog[k], v)
			cpuinfoTexts[k][v] = text
			interned = append(interned, internedText{text, k, v})
		}
	}
	slices.SortStableFunc(interned, func(a, b internedText) int { return len(a.text) - len(b.text) })
}

// lookupInterned finds cpuinfo among the interned texts without hashing
// it: a binary search for the first entry of its length, then a comparison
// with each entry of that length. A string comparison returns at once when
// both sides share their bytes, so a text the table handed out costs a
// full comparison only against the other entries of its length.
func lookupInterned(cpuinfo string) (internedText, bool) {
	lo, hi := 0, len(interned)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if len(interned[m].text) < len(cpuinfo) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for ; lo < len(interned) && len(interned[lo].text) == len(cpuinfo); lo++ {
		if interned[lo].text == cpuinfo {
			return interned[lo], true
		}
	}
	return internedText{}, false
}

// CPUInfo renders the /proc/cpuinfo content a guest with vcpus virtual CPUs
// would observe on a host backed by k. The format carries the fields the
// saaf profiler inspects (vendor_id, model name, cpu MHz).
func CPUInfo(k Kind, vcpus int) string {
	if vcpus < 1 {
		vcpus = 1
	}
	if !k.Valid() {
		return ""
	}
	if vcpus <= maxInterned {
		return cpuinfoTexts[k][vcpus]
	}
	return renderCPUInfo(catalog[k], vcpus)
}

func renderCPUInfo(info Info, vcpus int) string {
	var b strings.Builder
	for i := 0; i < vcpus; i++ {
		fmt.Fprintf(&b, "processor\t: %d\n", i)
		fmt.Fprintf(&b, "vendor_id\t: %s\n", info.Vendor)
		fmt.Fprintf(&b, "model name\t: %s\n", info.Model)
		fmt.Fprintf(&b, "cpu MHz\t\t: %.3f\n", info.ClockGHz*1000)
		b.WriteString("\n")
	}
	return b.String()
}

// ParseCPUInfo infers the processor kind from a /proc/cpuinfo dump, the way
// SAAF does from inside a function instance. It returns the kind and the
// number of processors listed. A text equal to one CPUInfo interned is
// answered from the table.
func ParseCPUInfo(cpuinfo string) (Kind, int, error) {
	if t, ok := lookupInterned(cpuinfo); ok {
		return t.kind, t.vcpus, nil
	}
	return parseCPUInfo(cpuinfo)
}

// parseCPUInfo is ParseCPUInfo without the table: the parse proper.
func parseCPUInfo(cpuinfo string) (Kind, int, error) {
	var model string
	procs := 0
	for rest := cpuinfo; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		switch {
		case strings.HasPrefix(line, "processor"):
			procs++
		case strings.HasPrefix(line, "model name") && model == "":
			if _, value, ok := strings.Cut(line, ":"); ok {
				model = strings.TrimSpace(value)
			}
		}
	}
	if model == "" {
		return 0, 0, fmt.Errorf("cpu: no model name in cpuinfo")
	}
	k, err := FromModel(model)
	if err != nil {
		return 0, 0, err
	}
	return k, procs, nil
}

// FromModel maps a cpuinfo model-name string back to a catalogued kind.
func FromModel(model string) (Kind, error) {
	for k := Kind(1); k.Valid(); k++ {
		if catalog[k].Model == model {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cpu: unknown model %q", model)
}
