package benchkit

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/gateway"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// Overload (G8) drives a real gateway through an offered-load storm on
// a virtual clock and reports what admission control does to delivered
// throughput. Everything that matters is deterministic: arrivals land
// every ArrivalEvery of virtual time, each admitted agent costs
// exactly ServiceEvery of virtual single-server time, and the shed
// watermark is the real ShedConfig reading the real registry in-flight
// gauge — so the 503s, the sojourn percentiles and the within-SLO
// goodput are pure arithmetic, identical on every machine, and CI can
// gate on them exactly (no ±noise band needed, though the gate keeps
// its usual tolerance).
//
// The model is a D/D/1 queue pushed past saturation: with
// ArrivalEvery < ServiceEvery the backlog grows one agent every
// cycle. Without shedding, every arrival is admitted and the tail
// sojourn grows linearly with the storm length — the familiar
// overload collapse where the server is 100% busy yet almost nothing
// finishes inside its latency objective. With MaxInFlight set, the
// watermark caps the backlog, excess arrivals bounce retryably at the
// front door for near-zero cost, and the agents that are admitted
// finish in bounded time.

// OverloadConfig shapes one overload run.
type OverloadConfig struct {
	// Offered is the number of dispatch arrivals.
	Offered int
	// ArrivalEvery is the virtual inter-arrival gap.
	ArrivalEvery time.Duration
	// ServiceEvery is the virtual per-agent service time of the single
	// server draining admitted agents.
	ServiceEvery time.Duration
	// SLO is the delivery latency objective: a dispatch counts toward
	// goodput only if its virtual sojourn (arrival → completion) is
	// within it.
	SLO time.Duration
	// MaxInFlight is the shed watermark (gateway.ShedConfig); 0 runs
	// with admission control off.
	MaxInFlight int
}

// OverloadPoint is one overload run's outcome. Counts are exact;
// quantiles are computed from the full sojourn population, not a
// histogram.
type OverloadPoint struct {
	Offered   int   // arrivals driven
	Admitted  int   // dispatches the gateway accepted
	Shed      int   // dispatches refused 503 by the watermark
	Delivered int   // admitted agents that completed
	WithinSLO int   // deliveries inside the SLO (the goodput)
	P50US     int64 // median virtual sojourn, microseconds
	P99US     int64 // p99 virtual sojourn, microseconds
	MaxUS     int64 // worst virtual sojourn, microseconds
}

// Overload runs one offered-load storm. The gateway is real — real
// pack/unpack, key check, nonce window, admission, real ShedConfig —
// only time is simulated: the agents suspend in their admission
// (SuspendingSource) and the continuations collected by Spawn are run
// at their virtual completion instants, so the registry's in-flight
// gauge (the shed signal) tracks the virtual backlog exactly.
func Overload(cfg OverloadConfig) (OverloadPoint, error) {
	var pt OverloadPoint
	if cfg.Offered <= 0 || cfg.ArrivalEvery <= 0 || cfg.ServiceEvery <= 0 || cfg.SLO <= 0 {
		return pt, fmt.Errorf("benchkit: overload config must be positive: %+v", cfg)
	}
	kp, err := keyPair()
	if err != nil {
		return pt, err
	}
	var shed *gateway.ShedConfig
	if cfg.MaxInFlight > 0 {
		shed = &gateway.ShedConfig{MaxInFlight: cfg.MaxInFlight}
	}
	// Spawn queues agent loops instead of running them: admission
	// suspends each agent after one short slice, and the driver runs
	// the rest of its journey at its virtual completion time.
	var spawned []func()
	gw, err := gateway.New(gateway.Config{
		Addr:      "gw-overload",
		KeyPair:   kp,
		Transport: netsim.New(1).Transport(netsim.ZoneWired),
		Spawn:     func(fn func()) { spawned = append(spawned, fn) },
		FuelSlice: suspendingFuel,
		Shed:      shed,
	})
	if err != nil {
		return pt, err
	}
	defer gw.Close()
	if err := gw.AddCodePackage(&wire.CodePackage{
		CodeID: "echo", Name: "Echo", Version: "1", Source: SuspendingSource,
	}); err != nil {
		return pt, err
	}
	secret := []byte("overload-secret")
	gw.Registry().SetSecret("echo", "dev-ovl", secret)
	key := pisec.DispatchKey("echo", secret)
	handler := gw.Handler()

	type job struct {
		run     func()
		finish  int64 // virtual ns
		sojourn int64
	}
	var queue []job // FIFO; completion order == admission order
	var sojournsUS []int64
	complete := func(j job) {
		j.run() // agent executes, delivers, comes home; in-flight drops
		pt.Delivered++
		us := j.sojourn / int64(time.Microsecond)
		sojournsUS = append(sojournsUS, us)
		if j.sojourn <= int64(cfg.SLO) {
			pt.WithinSLO++
		}
	}

	var body, nonce []byte
	serverFree := int64(0)
	for i := 0; i < cfg.Offered; i++ {
		now := int64(i) * int64(cfg.ArrivalEvery)
		// Run every agent whose virtual service completed by now, so
		// the in-flight gauge the watermark reads equals the backlog.
		for len(queue) > 0 && queue[0].finish <= now {
			complete(queue[0])
			queue = queue[1:]
		}
		nonce = strconv.AppendInt(append(nonce[:0], 'o', '-'), int64(i), 10)
		pi := &wire.PackedInformation{
			CodeID:      "echo",
			DispatchKey: key,
			Owner:       "dev-ovl",
			Nonce:       string(nonce),
			Source:      SuspendingSource,
		}
		body, err = wire.AppendPack(body[:0], pi, compress.LZSS, nil)
		if err != nil {
			return pt, err
		}
		before := len(spawned)
		resp := handler.Serve(context.Background(), &transport.Request{
			Path: "/pdagent/dispatch", Body: body,
		})
		pt.Offered++
		switch {
		case resp.Status == transport.StatusUnavailable:
			pt.Shed++
			continue
		case !resp.IsOK():
			return pt, fmt.Errorf("benchkit: overload dispatch %d: %d %s", i, resp.Status, resp.Text())
		}
		if len(spawned) != before+1 {
			return pt, fmt.Errorf("benchkit: overload dispatch %d admitted without spawning", i)
		}
		pt.Admitted++
		start := now
		if serverFree > start {
			start = serverFree
		}
		finish := start + int64(cfg.ServiceEvery)
		serverFree = finish
		queue = append(queue, job{run: spawned[before], finish: finish, sojourn: finish - now})
	}
	for _, j := range queue {
		complete(j)
	}
	if len(sojournsUS) > 0 {
		sort.Slice(sojournsUS, func(a, b int) bool { return sojournsUS[a] < sojournsUS[b] })
		pt.P50US = quantileUS(sojournsUS, 0.50)
		pt.P99US = quantileUS(sojournsUS, 0.99)
		pt.MaxUS = sojournsUS[len(sojournsUS)-1]
	}
	return pt, nil
}

// quantileUS indexes a sorted population at rank ceil(q*n).
func quantileUS(sorted []int64, q float64) int64 {
	idx := int(q*float64(len(sorted))+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
