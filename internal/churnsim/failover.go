package churnsim

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"pdagent/internal/cluster"
	"pdagent/internal/gateway"
	"pdagent/internal/netsim"
	"pdagent/internal/push"
	"pdagent/internal/repl"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
)

// CrashStorm is the §10 failover chaos drill: a two-member cluster
// where member 0 holds every device's mailbox and replicates it to
// member 1 (its ring successor AND the edge the whole fleet reconnects
// through). Mid-storm, member 0 is killed WITH its store destroyed —
// the kill is preceded by a burst of fresh mail so there is a real
// replication tail to lose — and member 1 fences the corpse and
// promotes the replica. The drill then proves the E-series invariants
// under total disk loss: nothing is ever delivered twice (the ledger's
// redelivered count stays zero), nothing ends the run stranded, and
// loss is exactly what the mode promises — zero acked commits for
// semi-sync, at most the replication-lag window (sampled at the kill)
// for async.

// CrashStormConfig configures a failover chaos drill.
type CrashStormConfig struct {
	// Devices is the fleet size.
	Devices int
	// EntriesPerDevice is the mail waiting per device before the storm
	// (default 1).
	EntriesPerDevice int
	// Window is the virtual span the reconnects land in (default 30s).
	Window time.Duration
	// CrashAt is the virtual instant member 0 dies (default Window/2).
	CrashAt time.Duration
	// Wave is how many extra entries are enqueued at member 0 in the
	// instants before the kill, one per not-yet-reconnected device
	// (default Devices/10, at least 1) — the commits whose replication
	// the crash races.
	Wave int
	// Mode is the replication ack discipline (default repl.ModeAsync).
	Mode repl.Mode
	// Servers / PerRequest / PerByte set gateway capacity (see
	// StormConfig; same defaults).
	Servers    int
	PerRequest time.Duration
	PerByte    time.Duration
	// Quota bounds each mailbox (default push.DefaultQuota).
	Quota int
	// Seed drives reconnect times and link jitter.
	Seed int64
	// Logf, when set, receives progress.
	Logf func(format string, args ...any)
}

// CrashStormResult reports a failover chaos drill.
type CrashStormResult struct {
	Devices, Entries                 int
	Enqueued, Delivered, Redelivered uint64
	// Lost is enqueued - delivered: 0 in semi-sync mode, bounded by
	// LostWindow in async mode (both enforced before returning).
	Lost uint64
	// LostWindow is the replication lag — the primary's pending
	// (unacked) ops — sampled at the kill; the async loss bound.
	LostWindow int
	// PromotedMailboxes counts device mailboxes the standby adopted.
	PromotedMailboxes int
	// Fence is the fencing epoch raised over the dead member.
	Fence uint64
	// Drain is reconnect -> entry delivered on the virtual clock.
	Drain    *Histogram
	WallTime time.Duration
}

// CrashStorm runs the drill; invariant violations surface as errors.
func CrashStorm(cfg CrashStormConfig) (*CrashStormResult, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("churnsim: crash storm needs devices")
	}
	if cfg.EntriesPerDevice <= 0 {
		cfg.EntriesPerDevice = 1
	}
	if cfg.EntriesPerDevice > 32 {
		return nil, fmt.Errorf("churnsim: crash storm drains one poll batch; <=32 entries per device")
	}
	if cfg.Window <= 0 {
		cfg.Window = 30 * time.Second
	}
	if cfg.CrashAt <= 0 || cfg.CrashAt >= cfg.Window {
		cfg.CrashAt = cfg.Window / 2
	}
	if cfg.Wave <= 0 {
		cfg.Wave = cfg.Devices / 10
		if cfg.Wave < 1 {
			cfg.Wave = 1
		}
	}
	if cfg.Mode == "" {
		cfg.Mode = repl.ModeAsync
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	if cfg.PerRequest <= 0 {
		cfg.PerRequest = 100 * time.Microsecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()

	kp, err := stormKeyPair()
	if err != nil {
		return nil, err
	}
	net := netsim.New(cfg.Seed)
	net.SetLinkBoth(netsim.ZoneWireless, netsim.ZoneWired, netsim.DefaultWirelessLink())
	net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.DefaultWiredLink())
	wired := net.Transport(netsim.ZoneWired)

	addrs := []string{"gw-0", "gw-1"}
	nodes := make([]*cluster.Node, 2)
	for i, addr := range addrs {
		nodes[i] = cluster.NewNode(cluster.Config{
			Self:           addr,
			Seeds:          addrs,
			Transport:      wired,
			Secret:         "churn-cluster-secret",
			NoLocationPush: true,
		})
	}
	peers := make([]*repl.Peer, 2)
	for i := range addrs {
		i := i
		peers[i] = repl.NewPeer(repl.Config{
			Self:      addrs[i],
			Transport: wired,
			Stamp:     nodes[i].StampIdentity,
			Authorize: nodes[i].Authorized,
			OriginOf:  cluster.Origin,
			StandbyFn: func() string { return addrs[1-i] },
			Mode:      cfg.Mode,
			Logf:      cfg.Logf,
		})
	}
	gws := make([]*gateway.Gateway, 2)
	for i, addr := range addrs {
		gw, err := gateway.New(gateway.Config{
			Addr:      addr,
			KeyPair:   kp,
			Transport: wired,
			Spawn:     func(func()) {},
			Mailbox:   &gateway.MailboxConfig{Store: rms.NewMemStore("mb-"+addr, 0), Quota: cfg.Quota},
			Cluster:   nodes[i],
			Repl:      peers[i],
			Logf:      cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		defer gw.Close()
		net.AddHost(addr, netsim.ZoneWired, gw.Handler())
		net.SetHostCapacity(addr, netsim.Capacity{
			Servers: cfg.Servers, PerRequest: cfg.PerRequest, PerByte: cfg.PerByte,
		})
		gws[i] = gw
	}

	// Preload member 0 while the fleet is dark.
	hub0 := gws[0].Mailbox()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	devName := func(d int) string { return "dev-" + strconv.Itoa(d) }
	tokens := make([]string, cfg.Devices)
	led := newLedger()
	for d := 0; d < cfg.Devices; d++ {
		dev := devName(d)
		tokens[d] = hub0.Touch(dev)
		for k := 0; k < cfg.EntriesPerDevice; k++ {
			event := "r:" + dev + ":" + strconv.Itoa(k)
			if _, dup, err := hub0.Enqueue(dev, push.KindResult, "ag-"+dev, event, churnBody); err != nil {
				return nil, err
			} else if dup {
				return nil, fmt.Errorf("churnsim: preload dup for %s", event)
			}
			led.enqueue(event)
		}
	}
	// One steady-state flush (the cluster tick): the standby now holds
	// the preload; only commits after this race the crash.
	peers[0].Flush(context.Background())
	logf("churnsim: crash storm preloaded %d devices x %d entries, replicated %s (wall %v)",
		cfg.Devices, cfg.EntriesPerDevice, cfg.Mode, time.Since(start).Round(time.Millisecond))

	// Every device reconnects through member 1 at a uniform instant in
	// the window, naming member 0 as its previous edge while it lives.
	events := make(stormHeap, 0, cfg.Devices)
	for d := 0; d < cfg.Devices; d++ {
		events = append(events, stormEvent{
			at:     time.Duration(rng.Int63n(int64(cfg.Window))),
			device: d,
		})
	}
	heap.Init(&events)

	res := &CrashStormResult{
		Devices: cfg.Devices,
		Entries: cfg.Devices * cfg.EntriesPerDevice,
		Drain:   &Histogram{},
	}
	reconnectAt := make([]time.Duration, cfg.Devices)
	reconnected := make([]bool, cfg.Devices)
	tr := net.Transport(netsim.ZoneWireless)
	crashed := false

	crash := func() error {
		// The last instants of the primary's life: a burst of fresh
		// mail for devices still offline. Semi-sync acks each of these
		// on the standby before Enqueue returns; async leaves them in
		// the window the crash is about to destroy.
		wave := 0
		for d := 0; d < cfg.Devices && wave < cfg.Wave; d++ {
			if reconnected[d] {
				continue
			}
			dev := devName(d)
			event := "w:" + dev
			if _, dup, err := hub0.Enqueue(dev, push.KindResult, "ag-"+dev, event, churnBody); err != nil {
				return err
			} else if dup {
				return fmt.Errorf("churnsim: wave dup for %s", event)
			}
			led.enqueue(event)
			wave++
		}
		res.LostWindow = peers[0].PendingOps()
		// Kill with total disk loss: the process dies and nothing of
		// the store survives (the drill simply never touches it again).
		if err := net.KillHost(addrs[0]); err != nil {
			return err
		}
		// The standby fences the corpse and promotes its replica.
		res.Fence = nodes[1].RaiseFence(addrs[0])
		rep := peers[1].Take(addrs[0])[repl.RoleMailbox]
		if rep == nil {
			return fmt.Errorf("churnsim: standby holds no mailbox replica of %s", addrs[0])
		}
		_, mbs, err := gws[1].PromoteFrom(context.Background(), addrs[0], nil, rep.NewStore("promoted-"+addrs[0]))
		if err != nil {
			return err
		}
		res.PromotedMailboxes = mbs
		logf("churnsim: killed %s at %v (window: %d pending ops, wave %d); %s promoted %d mailboxes",
			addrs[0], cfg.CrashAt, res.LostWindow, wave, addrs[1], mbs)
		return nil
	}

	for events.Len() > 0 {
		ev := heap.Pop(&events).(stormEvent)
		if !crashed && ev.at >= cfg.CrashAt {
			if err := crash(); err != nil {
				return nil, err
			}
			crashed = true
		}
		d := ev.device
		dev := devName(d)
		clock := netsim.NewClock()
		clock.AdvanceTo(ev.at)
		ctx := netsim.WithClock(context.Background(), clock)

		req := &transport.Request{Path: "/pdagent/mailbox"}
		req.SetHeader("device", dev)
		req.SetHeader("mailbox-token", tokens[d])
		req.SetHeader("max", "64")
		if ev.ack {
			req.SetHeader("ack", strconv.FormatUint(ev.watermark, 10))
		} else {
			reconnectAt[d] = ev.at
			reconnected[d] = true
			req.SetHeader("ack", "0")
			if !crashed {
				// The device last talked to member 0; the edge pulls its
				// mailbox over. After the crash the directory no longer
				// lists the corpse, so no pull is attempted.
				req.SetHeader("prev-edge", addrs[0])
			}
		}
		resp, err := tr.RoundTrip(ctx, addrs[1], req)
		if err != nil {
			return nil, fmt.Errorf("churnsim: crash storm poll %s: %w", dev, err)
		}
		if !resp.IsOK() {
			return nil, fmt.Errorf("churnsim: crash storm poll %s: %d %s", dev, resp.Status, resp.Text())
		}
		_, entries, watermark, _, _, _, err := push.ParseEntries(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("churnsim: crash storm poll %s: %w", dev, err)
		}
		now := clock.Now()
		if ev.ack {
			if len(entries) != 0 {
				return nil, fmt.Errorf("churnsim: %s: %d entries after full drain", dev, len(entries))
			}
			continue
		}
		for _, e := range entries {
			led.deliver(e.EventID)
			res.Drain.Record(now - ev.at)
		}
		heap.Push(&events, stormEvent{at: now, device: d, ack: true, watermark: watermark, got: len(entries)})
	}

	// Invariants. Exactly-once: the ledger never saw a second delivery.
	if led.redelivered != 0 {
		return nil, fmt.Errorf("churnsim: crash storm redelivered %d entries", led.redelivered)
	}
	// Nothing stranded: every mailbox at the survivor is empty.
	for d := 0; d < cfg.Devices; d++ {
		if p := gws[1].Mailbox().Pending(devName(d)); p != 0 {
			return nil, fmt.Errorf("churnsim: %s still has %d entries stranded after the drill", devName(d), p)
		}
	}
	res.Enqueued = led.enqueued
	res.Delivered = led.delivered
	res.Redelivered = led.redelivered
	res.Lost = led.enqueued - led.delivered
	// Loss is exactly what the mode promises.
	switch cfg.Mode {
	case repl.ModeSemiSync:
		if res.Lost != 0 {
			return nil, fmt.Errorf("churnsim: semi-sync lost %d acked commits", res.Lost)
		}
	default:
		if int(res.Lost) > res.LostWindow {
			return nil, fmt.Errorf("churnsim: async lost %d entries, more than the %d-op window sampled at the kill",
				res.Lost, res.LostWindow)
		}
	}
	res.WallTime = time.Since(start)
	logf("churnsim: crash storm complete: %d/%d delivered, %d lost (window %d ops), drain p99=%v (wall %v)",
		res.Delivered, res.Enqueued, res.Lost, res.LostWindow, res.Drain.Quantile(0.99), res.WallTime)
	return res, nil
}
