// Payloads: dynamic functions carry their workload (and data files) in the
// request payload — gzip+base64 on the wire, decoded and cached per
// instance (§3.2). This example ships a data-bearing payload twice to the
// same instance and shows the cache eliminating the decode cost.
//
//	go run ./examples/payloads
package main

import (
	"fmt"
	"log"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/dynfunc"
	"skyfaas/internal/faas"
	"skyfaas/internal/geo"
	"skyfaas/internal/rng"
	"skyfaas/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	env := sim.NewEnv(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC))
	catalog := []cloudsim.RegionSpec{{
		Provider: cloudsim.AWS, Name: "demo", Loc: geo.Coord{Lat: 40, Lon: -80},
		AZs: []cloudsim.AZSpec{{
			Name: "demo-a", PoolFIs: 1024,
			Mix: map[cpu.Kind]float64{cpu.Xeon25: 1},
		}},
	}}
	cloud := cloudsim.New(env, 7, catalog, cloudsim.Options{HorizonDays: 1})
	if _, err := dynfunc.Deploy(cloud, "demo-a", "dyn", 2048, cpu.X86); err != nil {
		return err
	}
	client := faas.NewClient(cloud, "demo-acct")

	// A payload with ~2 MB of incompressible input data for the sha1
	// workload (already-compressed inputs are the worst case for the
	// decode path).
	data := make([]byte, 2<<20)
	s := rng.New(1)
	for i := 0; i+8 <= len(data); i += 8 {
		v := s.Uint64()
		for j := 0; j < 8; j++ {
			data[i+j] = byte(v >> (8 * j))
		}
	}
	payload := dynfunc.Payload{Workload: "sha1_hash", Data: data}
	wire, err := dynfunc.Encode(payload)
	if err != nil {
		return err
	}
	fmt.Printf("payload: %d bytes raw data -> %d bytes on the wire (hash %s)\n",
		len(payload.Data), len(wire.Blob), wire.Hash[:12])

	env.Go("client", func(p *sim.Proc) error {
		invoke := func(cached bool) cloudsim.Response {
			work, err := dynfunc.WorkFor(payload, len(wire.Blob), cached)
			if err != nil {
				log.Fatal(err)
			}
			return client.Do(p, faas.InvokeSpec{Call: faas.Call{
				AZ: "demo-a", Function: "dyn",
				Work: work, PayloadHash: wire.Hash,
			}})
		}
		first := invoke(false)
		if !first.OK() {
			return first.Err
		}
		fmt.Printf("first call:  %6.1f ms billed (cold=%v, payload decoded on the instance)\n",
			first.BilledMS, first.Cold)
		// Same instance, same payload hash: the decode is skipped.
		second := invoke(first.PayloadCached)
		if !second.OK() {
			return second.Err
		}
		work2, _ := dynfunc.WorkFor(payload, len(wire.Blob), second.PayloadCached)
		fmt.Printf("second call: %6.1f ms billed (warm=%v, cached=%v, decode cost now %.1f ms)\n",
			second.BilledMS, !second.Cold, second.PayloadCached, work2.ExtraMS)
		fmt.Printf("decode saved per request: %.1f ms\n",
			dynfunc.DecodeMS(len(wire.Blob), false)-dynfunc.DecodeMS(len(wire.Blob), true))
		return nil
	})
	return env.Run()
}
