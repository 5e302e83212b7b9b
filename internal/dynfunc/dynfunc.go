// Package dynfunc implements dynamic functions (§3.2): generic, pre-deployed
// serverless functions whose *payload* carries the workload to execute —
// source selector, parameters, and optional data files — so one deployment
// can run any workload without redeployment.
//
// The wire format matches the paper's FaaSET tooling: the payload is JSON,
// gzip-compressed and base64-encoded. Instances cache decoded payloads by
// hash on their ephemeral filesystem; a repeat request with the same hash
// skips the decode (§3.2 reports <1 ms for code, up to ~70 ms for a 5 MB
// data payload).
package dynfunc

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/workload"
)

// MaxPayloadBytes is the platform's request payload cap (5 MB, matching
// the paper's maximum tested payload).
const MaxPayloadBytes = 5 << 20

// maxDecodedBytes bounds the JSON a payload may inflate to. A data file of
// MaxPayloadBytes rides in the JSON as base64, 4/3 of its size, next to a
// few dozen bytes of fields; gzip, though, turns a blob of kilobytes into
// gigabytes, so Decode stops reading here and Encode refuses what Decode
// would.
const maxDecodedBytes = 8 << 20

// Payload is what a caller ships to a dynamic function.
type Payload struct {
	// Workload selects the function logic by Table-1 name.
	Workload string `json:"workload"`
	// Scale multiplies the workload's base runtime (0 means 1).
	Scale float64 `json:"scale,omitempty"`
	// Data carries optional input files (already concatenated); it rides
	// inside the compressed wire payload.
	Data []byte `json:"data,omitempty"`
}

// Wire is an encoded payload ready to send.
type Wire struct {
	// Blob is the base64(gzip(json)) payload body.
	Blob []byte
	// Hash identifies the payload for per-instance caching.
	Hash string
}

// Encode serializes, compresses, and encodes a payload, returning the wire
// form and its cache hash.
func Encode(p Payload) (Wire, error) {
	if _, ok := workload.ByName(p.Workload); !ok {
		return Wire{}, fmt.Errorf("dynfunc: unknown workload %q", p.Workload)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return Wire{}, fmt.Errorf("dynfunc: marshal: %w", err)
	}
	if len(raw) > maxDecodedBytes {
		return Wire{}, fmt.Errorf("dynfunc: payload JSON %d bytes exceeds %d cap", len(raw), maxDecodedBytes)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		return Wire{}, fmt.Errorf("dynfunc: compress: %w", err)
	}
	if err := zw.Close(); err != nil {
		return Wire{}, fmt.Errorf("dynfunc: compress: %w", err)
	}
	blob := make([]byte, base64.StdEncoding.EncodedLen(gz.Len()))
	base64.StdEncoding.Encode(blob, gz.Bytes())
	if len(blob) > MaxPayloadBytes {
		return Wire{}, fmt.Errorf("dynfunc: payload %d bytes exceeds %d cap", len(blob), MaxPayloadBytes)
	}
	sum := sha256.Sum256(blob)
	return Wire{Blob: blob, Hash: hex.EncodeToString(sum[:16])}, nil
}

// Decode reverses Encode. It refuses a blob over MaxPayloadBytes, and one
// that inflates past maxDecodedBytes, which no payload Encode accepts
// does.
func Decode(w Wire) (Payload, error) {
	if len(w.Blob) > MaxPayloadBytes {
		return Payload{}, fmt.Errorf("dynfunc: payload %d bytes exceeds %d cap", len(w.Blob), MaxPayloadBytes)
	}
	gzBytes := make([]byte, base64.StdEncoding.DecodedLen(len(w.Blob)))
	n, err := base64.StdEncoding.Decode(gzBytes, w.Blob)
	if err != nil {
		return Payload{}, fmt.Errorf("dynfunc: base64: %w", err)
	}
	gzBytes = gzBytes[:n]
	zr, err := gzip.NewReader(bytes.NewReader(gzBytes))
	if err != nil {
		return Payload{}, fmt.Errorf("dynfunc: gunzip: %w", err)
	}
	// Measure before buffering: a bomb is refused having inflated no more
	// than the cap, through a small scratch buffer, and an honest payload
	// is read into one buffer of its exact size.
	size, err := io.Copy(io.Discard, io.LimitReader(zr, maxDecodedBytes+1))
	if err != nil {
		return Payload{}, fmt.Errorf("dynfunc: gunzip: %w", err)
	}
	if size > maxDecodedBytes {
		return Payload{}, fmt.Errorf("dynfunc: payload inflates past the %d-byte cap", maxDecodedBytes)
	}
	if err := zr.Reset(bytes.NewReader(gzBytes)); err != nil {
		return Payload{}, fmt.Errorf("dynfunc: gunzip: %w", err)
	}
	raw := make([]byte, size)
	if _, err := io.ReadFull(zr, raw); err != nil {
		return Payload{}, fmt.Errorf("dynfunc: gunzip: %w", err)
	}
	var p Payload
	if err := json.Unmarshal(raw, &p); err != nil {
		return Payload{}, fmt.Errorf("dynfunc: unmarshal: %w", err)
	}
	return p, nil
}

// DecodeMS models the in-function decode-and-store overhead for a payload
// of wireLen bytes: ~0.8 ms framework floor plus decompression time that
// reaches ~70 ms at the 5 MB cap. A cached payload skips the decode.
func DecodeMS(wireLen int, cached bool) float64 {
	const floorMS = 0.8
	if cached {
		return floorMS
	}
	return floorMS + 70*float64(wireLen)/float64(MaxPayloadBytes)
}

// WorkFor maps a decoded payload to the behavior the instance executes,
// with the decode overhead folded in.
func WorkFor(p Payload, wireLen int, cached bool) (cloudsim.WorkBehavior, error) {
	spec, ok := workload.ByName(p.Workload)
	if !ok {
		return cloudsim.WorkBehavior{}, fmt.Errorf("dynfunc: unknown workload %q", p.Workload)
	}
	return cloudsim.WorkBehavior{
		Workload: spec.ID,
		Scale:    p.Scale,
		ExtraMS:  DecodeMS(wireLen, cached),
	}, nil
}

// Deploy installs a dynamic function in the named zone. The deployment is
// marked Dynamic so invocations carry their behavior in the request, and
// its fallback behavior (payload-less ping) is a 1 ms sleep.
func Deploy(cloud *cloudsim.Cloud, az, name string, memoryMB int, arch cpu.Arch) (*cloudsim.Deployment, error) {
	cfg := cloudsim.DeployConfig{
		MemoryMB: memoryMB,
		Arch:     arch,
		Dynamic:  true,
		Behavior: cloudsim.SleepBehavior{D: time.Millisecond}, // ping
		CodeHash: "dynfunc-v1",
	}
	dep, err := cloud.Deploy(az, name, cfg)
	if err != nil {
		return nil, fmt.Errorf("dynfunc: %w", err)
	}
	return dep, nil
}
