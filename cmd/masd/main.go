// Command masd runs a mobile-agent-server host: a network site that
// receives visiting agents and offers them resident service agents.
//
// Usage:
//
//	masd -listen :9001 -addr localhost:9001 -flavour voyager -services bank,food,docs
//
// A failed transfer parks the agent, and the host retries it every
// -retry-interval. With -journal PATH the agent journal is a
// group-commit WAL directory, power-loss durable (DESIGN.md §9):
// resident agents survive a daemon crash (they are resumed on the next
// start). Without it the journal is kept in memory.
//
// A masd is no cluster member and replicates nothing: fault tolerance
// belongs to the gateways that hold agents for disconnected users
// (DESIGN.md §10). With -cluster-secret it stamps the location relays
// it sends each agent's clustered home gateway; without one it sends
// none, since a clustered home would refuse them.
//
// Tenant accounts are a gateway matter (gateway -tenants): a host
// learns each arriving agent's account from its transfer, and its
// /metrics breaks residents and journal bytes down by account.
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
	"pdagent/internal/rms"
	"pdagent/internal/services"
	"pdagent/internal/transport"
)

func main() {
	listen := flag.String("listen", ":9001", "listen address")
	addr := flag.String("addr", "", "public address agents use to reach this host (default: listen address)")
	flavour := flag.String("flavour", "aglets", "MAS codec flavour (aglets|voyager)")
	svcList := flag.String("services", "bank", "comma-separated services to host: bank,food,docs")
	journalPath := flag.String("journal", "", "agent journal directory (enables crash recovery; agents resume on restart)")
	clusterSecret := flag.String("cluster-secret", "", "shared cluster secret stamped on the location relays sent to each agent's clustered home gateway (empty: no relays are sent, since clustered homes refuse unauthenticated ones; standalone homes are skipped)")
	retryEvery := flag.Duration("retry-interval", mas.DefaultUpkeepInterval, "how often parked transfers are retried")
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

	if *retryEvery <= 0 {
		// RunUpkeep's ticker cannot run on a non-positive interval.
		log.Fatalf("masd: -retry-interval must be positive, got %v", *retryEvery)
	}
	var journal *rms.WALStore
	if *journalPath != "" {
		journal, err = rms.OpenWALStore(*journalPath, rms.WALOptions{})
		if err != nil {
			log.Fatalf("masd: opening journal: %v", err)
		}
	}

	rt := transport.NewPooledHTTPClient(0)
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
	// 404 and is left alone until the next re-probe. Without a secret
	// none is sent. Sent from the background, so no transfer waits for
	// a relay.
	sender := cluster.NewRelay(rt, public, *clusterSecret)
	sender.RegisterMetrics(masCfg.Metrics)
	relay := newLocRelay(sender.Send, masCfg.Metrics)
	masCfg.OnAgentMove = relay.post
	srv, err := mas.NewServer(masCfg)
	if err != nil {
		log.Fatalf("masd: %v", err)
	}
	// Background work (parked-transfer retries, journal compaction)
	// runs under a context cancelled on SIGTERM.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go relay.run(ctx)
	if _, err := srv.Resume(ctx); err != nil {
		log.Fatalf("masd: resuming journaled agents: %v", err)
	}
	go srv.RunUpkeep(ctx, *retryEvery)
	log.Printf("masd %s: %s flavour, services %v, listening on %s",
		public, *flavour, reg.Names(), *listen)

	httpSrv := transport.NewServer(srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe(*listen) }()
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
