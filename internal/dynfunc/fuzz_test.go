package dynfunc

import (
	"bytes"
	"testing"

	"skyfaas/internal/workload"
)

// FuzzDecode feeds Decode arbitrary wire bytes and Encode arbitrary
// payloads. Decode must never panic and never accept a blob over
// MaxPayloadBytes or a payload that inflated past maxDecodedBytes, and
// every payload Encode accepts must come back from Decode unchanged. The
// seed corpus under testdata/fuzz/FuzzDecode holds valid blobs, truncated
// and trailing-garbage variants, non-base64, non-gzip, non-JSON and
// multi-member gzip bodies, and a blob inflating just past the cap, and
// runs under plain `go test`.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(""), uint8(0), 1.5, []byte("sky"))
	f.Fuzz(func(t *testing.T, blob []byte, k uint8, scale float64, data []byte) {
		if p, err := Decode(Wire{Blob: blob}); err == nil {
			if len(blob) > MaxPayloadBytes || len(p.Data) > maxDecodedBytes {
				t.Fatalf("Decode accepted a %d-byte blob carrying %d bytes of data", len(blob), len(p.Data))
			}
		}

		all := workload.All()
		in := Payload{Workload: all[int(k)%len(all)].Name, Scale: scale, Data: data}
		w, err := Encode(in)
		if err != nil {
			return // a scale JSON cannot carry (NaN, ±Inf), or over a cap
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(Encode(%q, %v, %d bytes)): %v", in.Workload, in.Scale, len(in.Data), err)
		}
		if out.Workload != in.Workload || out.Scale != in.Scale || !bytes.Equal(out.Data, in.Data) {
			t.Fatalf("round trip of (%q, %v, %d bytes) came back (%q, %v, %d bytes)",
				in.Workload, in.Scale, len(in.Data), out.Workload, out.Scale, len(out.Data))
		}
	})
}
