package saaf

import (
	"encoding/json"
	"testing"
)

// FuzzParse feeds Parse arbitrary bytes, the report a function response
// carries back from an instance. It must never panic; every report it
// accepts must name a catalogued processor kind, and must come back
// unchanged from json.Marshal and a second Parse. The seed corpus under
// testdata/fuzz/FuzzParse holds a report of every kind, unknown and
// case-shifted models, trailing bytes, wrong types, nulls and huge numbers,
// and runs under plain `go test`.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Parse(data)
		if err != nil {
			return
		}
		if !r.Kind.Valid() {
			t.Fatalf("Parse accepted a report of unknown kind %v: %+v", r.Kind, r)
		}
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("Marshal of a parsed report: %v", err)
		}
		back, err := Parse(blob)
		if err != nil {
			t.Fatalf("reparsing a marshalled report: %v\n%s", err, blob)
		}
		if back != r {
			t.Fatalf("%+v came back as %+v", r, back)
		}
	})
}
