// Command gateway runs a PDAgent gateway: the middle-tier bridge that
// accepts Packed Information from handhelds, creates and dispatches
// mobile agents on the local MAS, and stores returned results.
//
// Usage:
//
//	gateway -listen :8080 -addr localhost:8080 -flavour aglets -peers gw2:8080
//
// Clustered middle tier (DESIGN.md §6): point every member at the same
// seed list and they federate — live membership replaces the static
// §3.5 list, dispatches are homed by consistent hashing, and results
// are relayed to the member the device talks to:
//
//	gateway -listen :8080 -addr host1:8080 -cluster-seeds host1:8080,host2:8080
//	gateway -listen :8080 -addr host2:8080 -cluster-seeds host1:8080,host2:8080
//
// With -mailbox-dir the gateway keeps a durable per-device mailbox
// (DESIGN.md §7): results, status changes and management notifications
// are enqueued the moment they happen and delivered through
// /pdagent/mailbox/poll when the device reconnects (/pdagent/mailbox is
// the same handler, for older devices) — intermittently
// connected devices are first-class. -mailbox-ttl, -mailbox-quota and
// -result-ttl bound retention; a background sweeper (-sweep-every)
// enforces them. With -journal PATH the embedded MAS keeps a durable
// agent journal: resident agents survive a crash, and an agent whose
// hop fails parks and is retried every 30 s, as on masd. Both are
// group-commit WAL directories, power-loss durable (DESIGN.md §9).
//
// Every device dispatch passes one admission rule after its dispatch
// key verifies (DESIGN.md §11–§12): -shed-inflight N refuses it with
// 503 + Retry-After while N agents are in flight and its tenant is not
// under its weighted share of N, and -tenants FILE declares the
// accounts, their weights and their rate/quota limits (429). Without
// -tenants every subscription bills to one unlimited default account.
//
// With -replicate (clustered members only) the journal and mailbox
// stores stream their commits to the ring-successor standby
// (DESIGN.md §10): if this member dies — even losing its disk — the
// standby is fenced in, adopts the resident agents, and imports the
// device mailboxes, exactly once. -repl-mode picks the ack discipline:
// async bounds loss to the last heartbeat window, semi-sync makes each
// commit wait for the standby.
//
// On SIGTERM the gateway drains: it stops accepting dispatches,
// deregisters from the cluster, waits (bounded by -drain-timeout) for
// resident agents to finish or ship out, then exits.
//
// The standard example applications (e-banking, food search, mobile
// office, echo) are published in the subscription catalogue.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served via -pprof
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pdagent/internal/cluster"
	"pdagent/internal/core"
	"pdagent/internal/gateway"
	"pdagent/internal/mas"
	"pdagent/internal/pisec"
	"pdagent/internal/push"
	"pdagent/internal/repl"
	"pdagent/internal/rms"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
)

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	addr := flag.String("addr", "", "public address devices, hosts and cluster peers use to reach this gateway, served in directories (default: listen address)")
	flavour := flag.String("flavour", "aglets", "embedded MAS codec flavour (aglets|voyager)")
	peers := flag.String("peers", "", "comma-separated peer gateway addresses for /pdagent/gateways (static fallback)")
	clusterSeeds := flag.String("cluster-seeds", "", "comma-separated seed members; non-empty enables gateway federation (requires -cluster-secret)")
	clusterSecret := flag.String("cluster-secret", "", "shared secret authenticating intra-cluster traffic; every member must use the same value")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "cluster heartbeat interval")
	replicate := flag.Bool("replicate", false, "stream journal and mailbox commits to the ring-successor standby (DESIGN.md §10; requires -cluster-seeds)")
	replMode := flag.String("repl-mode", string(repl.ModeAsync), "replication ack discipline: async (ship on the heartbeat tick) or semi-sync (each commit waits for the standby)")
	startEpoch := flag.Uint64("epoch", 0, "fencing epoch this instance starts at; after a fenced member recovers, restart it at or above the fence the standby raised")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "SIGTERM: max wait for resident agents to drain")
	mailboxDir := flag.String("mailbox-dir", "", "directory for the durable per-device mailbox store; empty disables the device-session mailbox subsystem")
	journalPath := flag.String("journal", "", "agent journal directory for the embedded MAS (agents resume on restart)")
	mailboxTTL := flag.Duration("mailbox-ttl", 72*time.Hour, "expire undelivered mailbox entries after this long (0 keeps them until quota eviction)")
	mailboxQuota := flag.Int("mailbox-quota", push.DefaultQuota, "max pending mailbox entries per device (oldest expendable evicted first)")
	resultTTL := flag.Duration("result-ttl", 0, "expire stored result documents this long after completion (0 keeps them forever; requires -mailbox-dir)")
	sweepEvery := flag.Duration("sweep-every", time.Minute, "how often the mailbox/result TTL sweeper runs")
	keyBits := flag.Int("key-bits", pisec.DefaultKeyBits, "RSA key size")
	workers := flag.Int("outbound-workers", 32, "bound on concurrent outbound calls (status chasing, management)")
	maxConns := flag.Int("max-conns-per-host", transport.DefaultMaxPerDest, "outbound connections per destination; every call holds one, so this also bounds in-flight calls, and callers beyond it queue")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	shedInFlight := flag.Int("shed-inflight", 0, "shed authenticated device dispatches (503 + Retry-After) while this many agents are in flight, sparing tenants under their weighted share; 0 disables")
	tenantsFile := flag.String("tenants", "", "tenant accounts config file (DESIGN.md §12): per-tenant rate limits, quotas and weighted shares on device dispatch. Empty runs single-tenant (every subscription bills to the unlimited default account)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("gateway: pprof on http://%s/debug/pprof/", *pprofAddr)
			// The pprof handlers live on DefaultServeMux; the gateway's
			// own traffic uses a dedicated handler, so nothing else is
			// exposed here.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("gateway: pprof server: %v", err)
			}
		}()
	}

	public := *addr
	if public == "" {
		public = *listen
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			peerList = append(peerList, strings.TrimSpace(p))
		}
	}

	rt := transport.NewPooledHTTPClient(*maxConns)
	// Declared ahead of the node so the eviction hook (which only runs
	// after everything is wired and heartbeats start) can close over
	// it.
	var node *cluster.Node
	var gw *gateway.Gateway
	if *clusterSeeds != "" {
		if *clusterSecret == "" {
			// The /cluster/ endpoints share the public listener and
			// transport headers are client-settable: an open cluster
			// would let anyone inject unauthenticated dispatches or
			// evict members. Refuse to federate without a credential.
			log.Fatalf("gateway: -cluster-seeds requires -cluster-secret (same value on every member)")
		}
		var seeds []string
		for _, s := range strings.Split(*clusterSeeds, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
		nodeCfg := cluster.Config{
			Self:      public,
			Seeds:     seeds,
			Transport: rt,
			Secret:    *clusterSecret,
			Epoch:     *startEpoch,
			Logf:      log.Printf,
		}
		if *replicate {
			// Warm-standby promotion (DESIGN.md §10): when the fleet
			// evicts a member whose replica this one holds, adopt it.
			nodeCfg.OnEvict = func(dead string) {
				if gw == nil {
					return
				}
				if _, err := gw.PromoteOver(context.Background(), dead); err != nil {
					log.Printf("gateway %s: promoting over %s: %v", public, dead, err)
				}
			}
		}
		node = cluster.NewNode(nodeCfg)
	}
	var peer *repl.Peer
	if *replicate {
		if node == nil {
			log.Fatalf("gateway: -replicate requires -cluster-seeds (replication rides the cluster transport)")
		}
		mode, err := repl.ParseMode(*replMode)
		if err != nil {
			log.Fatalf("gateway: %v", err)
		}
		peer = repl.NewPeer(repl.Config{
			Self:      public,
			Transport: rt,
			Identity:  node,
			StandbyFn: func() string { return node.StandbyFor(public) },
			Mode:      mode,
			Logf:      log.Printf,
		})
	}

	var mailbox *gateway.MailboxConfig
	if *mailboxDir != "" {
		if err := os.MkdirAll(*mailboxDir, 0o755); err != nil {
			log.Fatalf("gateway: creating mailbox dir: %v", err)
		}
		store, err := rms.OpenWALStore(filepath.Join(*mailboxDir, "mailbox.wal"), rms.WALOptions{})
		if err != nil {
			log.Fatalf("gateway: opening mailbox store: %v", err)
		}
		mailbox = &gateway.MailboxConfig{
			Store:     store,
			TTL:       *mailboxTTL,
			Quota:     *mailboxQuota,
			ResultTTL: *resultTTL,
		}
	} else if *resultTTL > 0 {
		// The result sweeper shares the mailbox subsystem (expiry notes
		// land in the owners' mailboxes); require the flag pairing
		// instead of silently keeping results forever.
		log.Fatalf("gateway: -result-ttl requires -mailbox-dir")
	}

	var journal rms.Store
	if *journalPath != "" {
		w, err := rms.OpenWALStore(*journalPath, rms.WALOptions{})
		if err != nil {
			log.Fatalf("gateway: opening journal: %v", err)
		}
		journal = w
	}

	kp, err := pisec.GenerateKeyPair(*keyBits)
	if err != nil {
		log.Fatalf("gateway: generating key pair: %v", err)
	}
	if *shedInFlight > 0 {
		log.Printf("gateway %s: shedding at %d in-flight agent(s)", public, *shedInFlight)
	}
	var tenants *tenant.Registry
	if *tenantsFile != "" {
		tenants, err = tenant.LoadFile(*tenantsFile)
		if err != nil {
			log.Fatalf("gateway: %v", err)
		}
		log.Printf("gateway %s: multi-tenant control plane on (%d account(s) from %s)",
			public, tenants.Len(), *tenantsFile)
	}
	gw, err = gateway.New(gateway.Config{
		Addr:            public,
		KeyPair:         kp,
		Transport:       rt,
		Flavour:         *flavour,
		Peers:           peerList,
		Cluster:         node,
		Repl:            peer,
		Journal:         journal,
		Mailbox:         mailbox,
		OutboundWorkers: *workers,
		ShedInFlight:    *shedInFlight,
		Tenants:         tenants,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatalf("gateway: %v", err)
	}
	if err := core.RegisterStandardApps(gw); err != nil {
		log.Fatalf("gateway: %v", err)
	}
	// Background work (parked-transfer retries, journal compaction)
	// runs under a context cancelled once the SIGTERM drain ends.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if journal != nil {
		n, err := gw.MAS().Resume(ctx)
		if err != nil {
			log.Fatalf("gateway: resuming journaled agents: %v", err)
		}
		log.Printf("gateway %s: journal %s, resumed %d agent(s)", public, *journalPath, n)
		go gw.MAS().RunUpkeep(ctx, mas.DefaultUpkeepInterval)
	}
	if node != nil {
		node.Start(*heartbeat)
		log.Printf("gateway %s: clustered, %d seed(s), heartbeat %v", public, len(strings.Split(*clusterSeeds, ",")), *heartbeat)
	}
	stopRepl := func() {}
	if peer != nil {
		stopRepl = peer.Start(*heartbeat)
		log.Printf("gateway %s: replicating to ring-successor standby (%s mode)", public, *replMode)
	}
	if mailbox != nil && (*mailboxTTL > 0 || *resultTTL > 0) {
		if *sweepEvery <= 0 {
			log.Fatalf("gateway: -sweep-every must be positive, got %v", *sweepEvery)
		}
		go func() {
			t := time.NewTicker(*sweepEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if results, entries := gw.Sweep(); results > 0 || entries > 0 {
						log.Printf("gateway %s: swept %d expired result doc(s), %d mailbox entr(ies)", public, results, entries)
					}
				}
			}
		}()
		log.Printf("gateway %s: mailbox at %s (ttl %v, quota %d, result ttl %v, sweep %v)",
			public, *mailboxDir, *mailboxTTL, *mailboxQuota, *resultTTL, *sweepEvery)
	}
	log.Printf("gateway %s: %s flavour, key %s, listening on %s",
		public, *flavour, kp.Public().Fingerprint(), *listen)

	srv := transport.NewServer(gw.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*listen) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatalf("gateway: %v", err)
	case s := <-sig:
		// Graceful shutdown: refuse new dispatches, announce the
		// departure to the cluster, drain resident agents, then stop
		// serving. In-flight journeys finish or ship out; anything left
		// after the timeout is reported (a journaled gateway recovers
		// it on the next start).
		log.Printf("gateway %s: %v received, draining (timeout %v)", public, s, *drainTimeout)
		drainCtx, drainCancel := context.WithTimeout(ctx, *drainTimeout)
		if left := gw.Drain(drainCtx); left > 0 {
			log.Printf("gateway %s: drain timeout with %d resident agent(s)", public, left)
		} else {
			log.Printf("gateway %s: drained clean", public)
		}
		drainCancel()
		cancel()
		// The last flush: the standby holds everything the drain
		// committed before this member goes away.
		stopRepl()
		// The HTTP shutdown gets its own deadline: after a drain
		// timeout the drain context is already expired, and reusing it
		// would abort in-flight device requests instantly.
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("gateway %s: http shutdown: %v", public, err)
		}
		shutCancel()
		// Close before the stores: the mailbox hub commits the acks it
		// still holds staged (DESIGN.md §7) and needs its store open.
		gw.Close()
		// Closing the stores ends with an fsync: everything enqueued,
		// acknowledged or journaled is on disk before the process exits.
		if mailbox != nil {
			if err := mailbox.Store.Close(); err != nil {
				log.Printf("gateway %s: closing mailbox store: %v", public, err)
			}
		}
		if journal != nil {
			if err := journal.Close(); err != nil {
				log.Printf("gateway %s: closing journal: %v", public, err)
			}
		}
	}
}
