// Command masd runs a mobile-agent-server host: a network site that
// receives visiting agents and offers them resident service agents.
//
// Usage:
//
//	masd -listen :9001 -addr localhost:9001 -flavour voyager -services bank,food,docs
//
// With -journal PATH the host keeps a write-ahead agent journal:
// resident agents survive a daemon crash (they are resumed on the
// next start), and failed transfers park for periodic retry instead
// of failing the journey. The journal is a group-commit WAL directory,
// power-loss durable (DESIGN.md §9).
//
// With -replicate ADDR (plus -cluster-secret) the journal streams its
// commits to a standby masd at ADDR (DESIGN.md §10); any masd started
// with the same secret serves as a standby, holding a live replica
// and answering /cluster/repl/fetch so a host that lost its disk can
// be recovered from its standby.
//
// Tenant accounts are a gateway matter (gateway -tenants): a host
// learns each arriving agent's account from its transfer and exports
// pdagent_tenant_residents and pdagent_tenant_journal_bytes by account,
// with a default row always present.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served via -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pdagent/internal/atp"
	"pdagent/internal/cluster"
	"pdagent/internal/mas"
	"pdagent/internal/metrics"
	"pdagent/internal/repl"
	"pdagent/internal/rms"
	"pdagent/internal/services"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
)

func main() {
	listen := flag.String("listen", ":9001", "listen address")
	addr := flag.String("addr", "", "public address agents use to reach this host (default: listen address)")
	flavour := flag.String("flavour", "aglets", "MAS codec flavour (aglets|voyager)")
	svcList := flag.String("services", "bank", "comma-separated services to host: bank,food,docs")
	journalPath := flag.String("journal", "", "agent journal directory (enables crash recovery; agents resume on restart)")
	clusterSecret := flag.String("cluster-secret", "", "shared cluster secret stamped on the location relays sent to each agent's home gateway (clustered home gateways refuse unauthenticated ones; standalone ones are skipped)")
	retryEvery := flag.Duration("retry-interval", 30*time.Second, "how often parked transfers are retried (with -journal)")
	replicateTo := flag.String("replicate", "", "standby address to stream journal commits to (DESIGN.md §10; requires -journal and -cluster-secret); the standby holds a live replica and serves it back on /cluster/repl/fetch")
	replMode := flag.String("repl-mode", string(repl.ModeAsync), "replication ack discipline: async (ship on the flush tick) or semi-sync (each commit waits for the standby)")
	replFlush := flag.Duration("repl-flush", 2*time.Second, "async replication flush interval")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6061); empty disables")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("masd: pprof on http://%s/debug/pprof/", *pprofAddr)
			// pprof handlers live on DefaultServeMux; agent traffic uses
			// a dedicated handler below, so only profiling is exposed.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("masd: pprof server: %v", err)
			}
		}()
	}

	public := *addr
	if public == "" {
		public = *listen
	}
	codec, err := atp.ByName(*flavour)
	if err != nil {
		log.Fatalf("masd: %v", err)
	}

	reg := services.NewRegistry()
	for _, s := range strings.Split(*svcList, ",") {
		switch strings.TrimSpace(s) {
		case "bank":
			bank := services.NewBank(public, map[string]int64{"alice": 10_000, "bob": 5_000})
			reg.Register(bank.Services()...)
		case "food":
			guide := services.NewFoodGuide(public, []services.Restaurant{
				{Name: "Dim Sum Palace", Cuisine: "cantonese", District: "central", Price: 80, Rating: 4},
				{Name: "Noodle Bar", Cuisine: "cantonese", District: "mongkok", Price: 40, Rating: 3},
				{Name: "Curry House", Cuisine: "indian", District: "central", Price: 60, Rating: 5},
			})
			reg.Register(guide.Services()...)
		case "docs":
			store := services.NewDocStore(public, map[string]string{
				"welcome.txt": "Documents served by " + public,
			})
			reg.Register(store.Services()...)
		case "":
		default:
			log.Fatalf("masd: unknown service %q (want bank, food or docs)", s)
		}
	}

	var journal *rms.WALStore
	if *journalPath != "" {
		if *retryEvery <= 0 {
			// time.Tick on a non-positive interval returns a nil channel
			// and would silently never retry parked transfers.
			log.Fatalf("masd: -retry-interval must be positive, got %v", *retryEvery)
		}
		journal, err = rms.OpenWALStore(*journalPath, rms.WALOptions{})
		if err != nil {
			log.Fatalf("masd: opening journal: %v", err)
		}
	}

	rt := transport.NewPooledHTTPClient(0)

	// Journal replication (DESIGN.md §10): any masd with the cluster
	// secret can stand by for another (the receiver endpoints ride the
	// same listener); -replicate names this host's own standby and
	// starts streaming journal commits to it. A masd is not a cluster
	// member, so its identity is static — same token, no fencing
	// epochs; recovery is by operator (fetch the replica back from the
	// standby via /cluster/repl/fetch).
	var peer *repl.Peer
	if *clusterSecret != "" {
		mode, err := repl.ParseMode(*replMode)
		if err != nil {
			log.Fatalf("masd: %v", err)
		}
		id := cluster.StaticIdentity{Self: public, Secret: *clusterSecret}
		peer = repl.NewPeer(repl.Config{
			Self:      public,
			Transport: rt,
			Stamp:     id.Stamp,
			Authorize: id.Authorized,
			OriginOf:  cluster.Origin,
			StandbyFn: func() string { return *replicateTo },
			Mode:      mode,
			Logf:      log.Printf,
		})
	}
	if *replicateTo != "" {
		switch {
		case peer == nil:
			log.Fatalf("masd: -replicate requires -cluster-secret (streams are authenticated)")
		case journal == nil:
			log.Fatalf("masd: -replicate requires -journal (there is nothing else to replicate)")
		case *replFlush <= 0:
			log.Fatalf("masd: -repl-flush must be positive, got %v", *replFlush)
		}
		peer.Replicate(repl.RoleJournal, journal)
	}
	masCfg := mas.Config{
		Addr:      public,
		Codec:     codec,
		Transport: rt,
		Services:  reg,
		Metrics:   metrics.NewRegistry(),
		Logf:      log.Printf,
	}
	if journal != nil {
		masCfg.Journal = journal // a nil *WALStore must not become a non-nil Store
	}
	// Location relays, best-effort: clustered home gateways fold the event
	// into the replicated location directory and refuse it (logged once)
	// without the matching -cluster-secret; a standalone gateway answers
	// 404 and is left alone until the next re-probe. Sent from the
	// background, so no transfer waits for a relay.
	sender := cluster.NewRelay(rt, public, *clusterSecret)
	sender.RegisterMetrics(masCfg.Metrics)
	relay := newLocRelay(sender.Send, masCfg.Metrics)
	masCfg.OnAgentMove = relay.post
	srv, err := mas.NewServer(masCfg)
	if err != nil {
		log.Fatalf("masd: %v", err)
	}
	// The MAS built its own registry (served on /metrics); fold the
	// host-level durability and replication signals into the same
	// scrape.
	if journal != nil {
		journal.RegisterMetrics(srv.Metrics(), "pdagent_wal", "agent journal")
	}
	if peer != nil {
		m := srv.Metrics()
		m.GaugeFunc("pdagent_repl_streams",
			"Stores replicated to the standby.",
			func() float64 { return float64(peer.Stats().Streams) })
		m.GaugeFunc("pdagent_repl_degraded",
			"Replication streams latched degraded (standby unreachable).",
			func() float64 { return float64(peer.Stats().Degraded) })
		m.GaugeFunc("pdagent_repl_pending_ops",
			"Buffered-but-unreplicated ops across streams (replication lag).",
			func() float64 { return float64(peer.Stats().PendingOps) })
	}
	// Per-tenant residency: admission runs at the gateways (they resolve
	// the account from the subscription table); a MAS host learns each
	// agent's tenant from the authenticated transfer headers and breaks
	// its /metrics down per account, the default one included.
	m := srv.Metrics()
	m.GaugeVecFunc("pdagent_tenant_residents",
		"Resident agents by tenant account.", "tenant",
		func() map[string]float64 {
			out := map[string]float64{tenant.DefaultLabel: 0}
			for label, n := range srv.ResidentsByTenant() {
				out[label] = float64(n)
			}
			return out
		})
	m.GaugeVecFunc("pdagent_tenant_journal_bytes",
		"Journaled agent bytes by tenant account.", "tenant",
		func() map[string]float64 {
			out := map[string]float64{tenant.DefaultLabel: 0}
			for label, b := range srv.JournalBytesByTenant() {
				out[label] = float64(b)
			}
			return out
		})
	// Background work (parked-transfer retries, journal compaction)
	// runs under a context cancelled on SIGTERM, so a shutdown never
	// races a half-finished retry round.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go relay.run(ctx)
	if journal != nil {
		n, err := srv.Resume(ctx)
		if err != nil {
			log.Fatalf("masd: resuming journaled agents: %v", err)
		}
		log.Printf("masd %s: journal %s, resumed %d agent(s)", public, *journalPath, n)
		go func() {
			// Journals are append-only; reclaim superseded bytes once they
			// pass a threshold so long-running daemons stay bounded on
			// disk, not just in live records. (The WAL also compacts
			// itself at segment rotation; this ticker is the backstop for
			// idle hosts.)
			const compactThreshold = 1 << 20
			t := time.NewTicker(*retryEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				if n := srv.RetryParked(ctx); n > 0 {
					log.Printf("masd %s: retrying %d parked transfer(s)", public, n)
				}
				if journal.Garbage() > compactThreshold {
					if err := journal.Compact(); err != nil {
						log.Printf("masd %s: compacting journal: %v", public, err)
					}
				}
			}
		}()
	}
	if *replicateTo != "" {
		// The flush ticker is the async-mode shipper and, in semi-sync
		// mode, the retry loop for anything a degraded stream buffered.
		go func() {
			t := time.NewTicker(*replFlush)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
					peer.Flush(fctx)
					fcancel()
				}
			}
		}()
		log.Printf("masd %s: replicating journal to %s (%s mode)", public, *replicateTo, *replMode)
	}
	log.Printf("masd %s: %s flavour, services %v, listening on %s",
		public, *flavour, reg.Names(), *listen)

	handler := srv.Handler()
	if peer != nil {
		// Replication endpoints share the listener; everything else
		// falls through to the MAS.
		m := transport.NewMux()
		peer.Mount(m)
		m.Handle("/", handler)
		handler = m
	}
	httpSrv := &http.Server{Addr: *listen, Handler: transport.NewHTTPHandler(handler)}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatalf("masd: %v", err)
	case s := <-sig:
		// Graceful stop: cancel background work, then give in-flight
		// agent transfers a bounded window to finish (a journaled host
		// recovers anything left on the next start).
		log.Printf("masd %s: %v received, shutting down", public, s)
		cancel()
		<-relay.done
		if *replicateTo != "" {
			// One last flush so the standby's replica is current before
			// this host goes away.
			fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
			peer.Flush(fctx)
			fcancel()
		}
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("masd %s: http shutdown: %v", public, err)
		}
		shutCancel()
		if journal != nil {
			// A clean close ends with an fsync: everything journaled is on
			// disk before the process exits.
			if err := journal.Close(); err != nil {
				log.Printf("masd %s: closing journal: %v", public, err)
			}
		}
	}
}
