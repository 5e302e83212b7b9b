package tenant

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzLoad feeds Load arbitrary bytes. It must never panic, and every set
// it accepts must validate and come back unchanged from json.Marshal and a
// second Load. The seed corpus under testdata/fuzz/FuzzLoad holds the
// fixture, metered and admin accounts, invalid records, unknown fields and
// trailing data, and runs under plain `go test`.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, tn := range ts {
			if err := tn.Validate(); err != nil {
				t.Fatalf("Load accepted an invalid tenant: %v", err)
			}
		}
		out, err := json.Marshal(ts)
		if err != nil {
			t.Fatalf("Marshal of a loaded set: %v", err)
		}
		back, err := Load(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("reloading a marshalled set: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, ts) {
			t.Fatalf("%+v came back as %+v", ts, back)
		}
	})
}
