package churnsim

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"pdagent/internal/push"
	"pdagent/internal/rms"
)

// This file measures the hub's marginal memory cost per device — the
// number that decides whether a gateway holds 10⁴ or 10⁶ idle
// mailboxes. Two shapes matter:
//
//   - a fresh idle device: dispatched once (Touch), parked a long-poll
//     (Wait), never received mail — the floor every registered device
//     pays forever;
//   - a drained device: received and acknowledged a history of entries
//     and now sits idle — what a fleet looks like the morning after,
//     and where dedup-window and meta-record residue accumulates.

// heapInUse runs the collector twice (finalizers then the real pass)
// and returns live heap bytes — the standard stable-measurement dance.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// IdleDeviceBytes parks n fresh idle devices on a hub and returns the
// marginal live-heap bytes each one costs.
func IdleDeviceBytes(n int) (float64, error) {
	hub, err := push.NewHub(push.Config{Store: rms.NewMemStore("idle", 0)})
	if err != nil {
		return 0, err
	}
	defer hub.Close()
	before := heapInUse()
	for d := 0; d < n; d++ {
		dev := "dev-" + strconv.Itoa(d)
		if hub.Touch(dev) == "" {
			return 0, fmt.Errorf("churnsim: minting token for %s failed", dev)
		}
		hub.Wait(dev) // arm the long-poll park
	}
	after := heapInUse()
	if after < before {
		return 0, nil
	}
	return float64(after-before) / float64(n), nil
}

// DrainedDeviceBytes runs n devices through history enqueue/ack cycles
// each, leaves them idle, and returns the marginal live-heap bytes per
// device. The gap between this and IdleDeviceBytes is delivery
// residue: dedup-window memory and meta-record buffers that linger
// after the mail itself is gone.
func DrainedDeviceBytes(n, history int) (float64, error) {
	var vnow time.Duration
	hub, err := push.NewHub(push.Config{
		Store: rms.NewMemStore("drained", 0),
		// Aged dedup memory is reclaimable once no retry can be in
		// flight; the virtual clock jumps past the window after the
		// drain so the measurement sees steady state, not the
		// transient.
		DedupTTL: 15 * time.Minute,
		Clock:    func() time.Time { return simEpoch.Add(vnow) },
	})
	if err != nil {
		return 0, err
	}
	defer hub.Close()
	before := heapInUse()
	for d := 0; d < n; d++ {
		dev := "dev-" + strconv.Itoa(d)
		hub.Touch(dev)
		for k := 0; k < history; k++ {
			seq, dup, err := hub.Enqueue(dev, push.KindResult, "ag", "e:"+dev+":"+strconv.Itoa(k), churnBody)
			if err != nil || dup {
				return 0, fmt.Errorf("churnsim: enqueue %s/%d: dup=%v err=%v", dev, k, dup, err)
			}
			if _, err := hub.Ack(dev, seq); err != nil {
				return 0, err
			}
		}
		hub.Wait(dev)
	}
	vnow = 24 * time.Hour // the morning after: every dedup id is stale
	hub.SweepExpired()
	after := heapInUse()
	if after < before {
		return 0, nil
	}
	return float64(after-before) / float64(n), nil
}
