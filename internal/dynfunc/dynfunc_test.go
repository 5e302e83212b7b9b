package dynfunc

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/faas"
	"skyfaas/internal/geo"
	"skyfaas/internal/rng"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := Payload{
		Workload: "zipper",
		Scale:    1.5,
		Data:     bytes.Repeat([]byte("sky "), 1000),
	}
	w, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if w.Hash == "" {
		t.Fatal("empty hash")
	}
	back, err := Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != p.Workload || back.Scale != p.Scale || !bytes.Equal(back.Data, p.Data) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestEncodeRejectsUnknownWorkload(t *testing.T) {
	if _, err := Encode(Payload{Workload: "quantum_sort"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestEncodeCompresses(t *testing.T) {
	// Highly repetitive data should shrink on the wire.
	p := Payload{Workload: "sha1_hash", Data: bytes.Repeat([]byte("aaaa"), 100000)}
	w, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Blob) >= len(p.Data) {
		t.Errorf("wire %d bytes >= raw %d bytes", len(w.Blob), len(p.Data))
	}
}

func TestHashStableAndDistinct(t *testing.T) {
	a1, err := Encode(Payload{Workload: "sha1_hash", Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Encode(Payload{Workload: "sha1_hash", Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(Payload{Workload: "sha1_hash", Data: []byte("y")})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Hash != a2.Hash {
		t.Error("same payload, different hashes")
	}
	if a1.Hash == b.Hash {
		t.Error("different payloads, same hash")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(Wire{Blob: []byte("!!!not base64!!!")}); err == nil {
		t.Fatal("bad base64 accepted")
	}
	if _, err := Decode(Wire{Blob: []byte("aGVsbG8=")}); err == nil { // "hello", not gzip
		t.Fatal("non-gzip accepted")
	}
}

func TestDecodeMSModel(t *testing.T) {
	// Sub-millisecond floor for tiny cached payloads (§3.2: <1 ms).
	if ms := DecodeMS(100, true); ms >= 1 {
		t.Errorf("cached decode = %v ms, want <1", ms)
	}
	// ~70 ms at the 5 MB cap.
	if ms := DecodeMS(MaxPayloadBytes, false); ms < 60 || ms > 80 {
		t.Errorf("5MB decode = %v ms, want ~70", ms)
	}
	// Cached always cheaper.
	if DecodeMS(MaxPayloadBytes, true) >= DecodeMS(MaxPayloadBytes, false) {
		t.Error("cache does not help")
	}
	// Monotone in size.
	if DecodeMS(1000, false) > DecodeMS(100000, false) {
		t.Error("decode cost not monotone in size")
	}
}

func TestWorkFor(t *testing.T) {
	p := Payload{Workload: "matrix_multiply", Scale: 2}
	w, err := WorkFor(p, 5000, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.Workload != workload.MatrixMultiply {
		t.Errorf("workload = %v", w.Workload)
	}
	if w.Scale != 2 {
		t.Errorf("scale = %v", w.Scale)
	}
	if w.ExtraMS <= 0 {
		t.Error("no decode overhead")
	}
	if _, err := WorkFor(Payload{Workload: "nope"}, 0, false); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestDeployAndInvokeThroughCloud(t *testing.T) {
	env := sim.NewEnv(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	catalog := []cloudsim.RegionSpec{{
		Provider: cloudsim.AWS, Name: "r1", Loc: geo.Coord{},
		AZs: []cloudsim.AZSpec{{Name: "r1-a", PoolFIs: 1024, Mix: map[cpu.Kind]float64{cpu.Xeon25: 1}}},
	}}
	cloud := cloudsim.New(env, 3, catalog, cloudsim.Options{HorizonDays: 1})
	if _, err := Deploy(cloud, "r1-a", "dyn-2048", 2048, cpu.X86); err != nil {
		t.Fatal(err)
	}
	wire, err := Encode(Payload{Workload: "sha1_hash"})
	if err != nil {
		t.Fatal(err)
	}
	var first, second cloudsim.Response
	env.Go("client", func(p *sim.Proc) error {
		work, err := WorkFor(Payload{Workload: "sha1_hash"}, len(wire.Blob), false)
		if err != nil {
			t.Error(err)
			return nil
		}
		client := faas.NewClient(cloud, "a")
		call := faas.Call{AZ: "r1-a", Function: "dyn-2048", Work: work, PayloadHash: wire.Hash}
		first = client.Do(p, faas.InvokeSpec{Call: call})
		// Second call hits the same warm instance: payload cached.
		work2, _ := WorkFor(Payload{Workload: "sha1_hash"}, len(wire.Blob), true)
		call.Work = work2
		second = client.Do(p, faas.InvokeSpec{Call: call})
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !first.OK() || !second.OK() {
		t.Fatalf("errs: %v / %v", first.Err, second.Err)
	}
	if first.PayloadCached {
		t.Error("first call claims cached payload")
	}
	if !second.PayloadCached {
		t.Error("second call not cached")
	}
	if second.BilledMS >= first.BilledMS {
		t.Errorf("cached call (%.2fms) not cheaper than first (%.2fms)", second.BilledMS, first.BilledMS)
	}
}

func TestPayloadCapEnforced(t *testing.T) {
	// Incompressible (pseudo-random) data exceeding the cap must be
	// rejected.
	s := rng.New(1)
	data := make([]byte, MaxPayloadBytes)
	for i := 0; i+8 <= len(data); i += 8 {
		v := s.Uint64()
		for j := 0; j < 8; j++ {
			data[i+j] = byte(v >> (8 * j))
		}
	}
	_, err := Encode(Payload{Workload: "zipper", Data: data})
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized payload not rejected: %v", err)
	}
}
