package saaf

import (
	"encoding/json"
	"strings"
	"testing"

	"skyfaas/internal/cpu"
)

func TestCollectFromCPUInfo(t *testing.T) {
	dump := cpu.CPUInfo(cpu.Xeon30, 2)
	r, err := Collect(dump, 1, "host-9", true, 123.4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != cpu.Xeon30 {
		t.Errorf("kind = %v", r.Kind)
	}
	if r.CPUMHz != 3000 {
		t.Errorf("MHz = %v", r.CPUMHz)
	}
	if r.VCPUs != 2 {
		t.Errorf("vcpus = %v", r.VCPUs)
	}
	if !r.Cold() {
		t.Error("cold flag lost")
	}
	if r.Instance != 1 || r.UUID != "" || r.VMID != "host-9" {
		t.Errorf("ids = %d %q %q, want instance 1, no uuid, host-9", r.Instance, r.UUID, r.VMID)
	}
	if r.RuntimeMS != 123.4 {
		t.Errorf("runtime = %v", r.RuntimeMS)
	}
}

func TestCollectWarm(t *testing.T) {
	r, err := Collect(cpu.CPUInfo(cpu.EPYC, 1), 1, "h", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cold() || r.NewContainer != 0 {
		t.Error("warm invocation flagged cold")
	}
	if r.Kind != cpu.EPYC {
		t.Errorf("kind = %v", r.Kind)
	}
}

func TestCollectRejectsGarbage(t *testing.T) {
	if _, err := Collect("not cpuinfo", 1, "h", false, 1); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Collect("", 1, "h", false, 1); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	for _, k := range cpu.Kinds() {
		orig, err := Collect(cpu.CPUInfo(k, 2), 0, "host-y", true, 55.5)
		if err != nil {
			t.Fatal(err)
		}
		orig.UUID = "fi-x"
		blob, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(blob)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if back != orig {
			t.Errorf("%v: round trip mismatch:\n  %+v\n  %+v", k, orig, back)
		}
	}
}

func TestMarshalUsesSAAFFieldNames(t *testing.T) {
	r, err := Collect(cpu.CPUInfo(cpu.Xeon25, 1), 1, "h", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"uuid"`, `"vmID"`, `"cpuType"`, `"newcontainer"`, `"runtime"`} {
		if !strings.Contains(string(blob), field) {
			t.Errorf("JSON missing SAAF field %s: %s", field, blob)
		}
	}
}

func TestParseRejectsUnknownModel(t *testing.T) {
	if _, err := Parse([]byte(`{"cpuType":"Mystery CPU"}`)); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Parse([]byte(`{bad json`)); err == nil {
		t.Fatal("bad json accepted")
	}
}

// TestMarshalOmitsInstance pins the wire format against the instance
// number: it is platform metadata, never serialized, so a report marshals
// to the bytes it did before reports carried one, and Parse leaves it 0.
func TestMarshalOmitsInstance(t *testing.T) {
	const want = `{"uuid":"fi-us-west-1a-7","vmID":"vm-us-west-1a-3","cpuType":"Intel(R) Xeon(R) Processor @ 2.50GHz","cpuMHz":2500,"vcpus":2,"newcontainer":1,"runtime":12.5}`
	r, err := Collect(cpu.CPUInfo(cpu.Xeon25, 2), 7, "vm-us-west-1a-3", true, 12.5)
	if err != nil {
		t.Fatal(err)
	}
	r.UUID = "fi-us-west-1a-7"
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != want {
		t.Errorf("json.Marshal = %s\nwant      %s", blob, want)
	}
	back, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Instance != 0 {
		t.Errorf("Parse set Instance %d from bytes that do not carry it", back.Instance)
	}
}
