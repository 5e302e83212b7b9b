package dynfunc

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"runtime"
	"strings"
	"testing"
)

// TestDecodeRejectsSizeBomb: a blob of about 130 KB that inflates to 100 MB
// of zeros is refused, and refusing it allocates less than the decoded
// cap, let alone the bomb.
func TestDecodeRejectsSizeBomb(t *testing.T) {
	var gz bytes.Buffer
	zw, err := gzip.NewWriterLevel(&gz, gzip.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for i := 0; i < 100; i++ {
		if _, err := zw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, base64.StdEncoding.EncodedLen(gz.Len()))
	base64.StdEncoding.Encode(blob, gz.Bytes())
	if len(blob) > MaxPayloadBytes {
		t.Fatalf("the bomb is %d bytes on the wire, over the cap it must slip under", len(blob))
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = Decode(Wire{Blob: blob})
	runtime.ReadMemStats(&m1)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Decode of a 100 MB bomb = %v, want the cap's error", err)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("%d-byte blob refused after allocating %.1f MB", len(blob), float64(alloc)/(1<<20))
	if alloc > maxDecodedBytes {
		t.Errorf("refusing the bomb allocated %d bytes, past the %d-byte cap", alloc, maxDecodedBytes)
	}
}

// TestDecodeRejectsOversizedBlob: a blob over MaxPayloadBytes is refused
// before any of it is decoded.
func TestDecodeRejectsOversizedBlob(t *testing.T) {
	_, err := Decode(Wire{Blob: bytes.Repeat([]byte("A"), MaxPayloadBytes+4)})
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Decode of an oversized blob = %v, want the cap's error", err)
	}
}
