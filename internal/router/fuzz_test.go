package router

import (
	"bytes"
	"testing"

	"skyfaas/internal/workload"
)

// FuzzLoadPerfModel feeds LoadPerfModel arbitrary bytes. It must never
// panic (nor hang on a count taken from the file), and every model it
// accepts must come back from Save and a second load unchanged: the same
// kinds per workload in the same order, with the same counts and means.
// The seed corpus under testdata/fuzz/FuzzLoadPerfModel holds saved
// models, zero, negative and huge counts, duplicate entries, unknown
// workloads and CPU models, and malformed or trailing JSON, and runs under
// plain `go test`.
func FuzzLoadPerfModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadPerfModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded model: %v", err)
		}
		back, err := LoadPerfModel(&buf)
		if err != nil {
			t.Fatalf("reloading a saved model: %v\n%s", err, buf.Bytes())
		}
		for _, spec := range workload.All() {
			kinds, again := m.Kinds(spec.ID), back.Kinds(spec.ID)
			if len(kinds) != len(again) {
				t.Fatalf("%s: kinds %v came back as %v", spec.Name, kinds, again)
			}
			for i, k := range kinds {
				mean, _ := m.Mean(spec.ID, k)
				mean2, _ := back.Mean(spec.ID, k)
				if again[i] != k || back.Samples(spec.ID, k) != m.Samples(spec.ID, k) || mean2 != mean {
					t.Fatalf("%s/%v: (n %d, mean %v) came back as %v (n %d, mean %v)",
						spec.Name, k, m.Samples(spec.ID, k), mean, again[i], back.Samples(spec.ID, k), mean2)
				}
			}
		}
	})
}
