package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pdagent/internal/atp"
	clusterpkg "pdagent/internal/cluster"
	"pdagent/internal/core"
	"pdagent/internal/gateway"
	"pdagent/internal/mas"
	"pdagent/internal/pisec"
	"pdagent/internal/push"
	"pdagent/internal/rms"
	"pdagent/internal/services"
	"pdagent/internal/transport"
)

// inprocCluster is the same three components the daemons run — built
// from gateway.New, mas.NewServer, rms.OpenWALStore and
// transport.NewHTTPHandler with the daemons' default configuration —
// in this process, on real loopback listeners, with the tracer's
// decorators on every handler, outbound round-tripper and store.
type inprocCluster struct {
	keyPair   *pisec.KeyPair
	listeners []net.Listener
	servers   []*http.Server
	gw        *gateway.Gateway
	stores    []rms.Store
	cancel    context.CancelFunc // stops the parked-transfer retry tickers
	wg        sync.WaitGroup     // serving and ticker goroutines
}

// quietLogf formats like the daemons' log.Printf does and discards the
// line: the formatting cost stays on the path, the output does not.
var quietLogf = log.New(io.Discard, "", log.LstdFlags).Printf

// startInproc assembles and starts the in-process cluster. keyBits is
// the gateway key size (the daemons' default is pisec.DefaultKeyBits;
// tests pass a smaller one to start faster); memberSeen, when set, is
// shown every exchange the gateway and the bank hosts originate.
func startInproc(p *paths, t *tracer, keyBits int, memberSeen func(*transport.Request, *transport.Response)) (_ *cluster, err error) {
	dir, err := os.MkdirTemp(p.tmpDir, "inproc-")
	if err != nil {
		return nil, err
	}
	ic := &inprocCluster{}
	c := &cluster{dir: dir, inproc: ic}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()

	for i := 0; i < 3; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ic.listeners = append(ic.listeners, l)
	}
	c.gateway = ic.listeners[0].Addr().String()
	c.banks = []string{ic.listeners[1].Addr().String(), ic.listeners[2].Addr().String()}

	openWAL := func(name string, cat category) (rms.Store, error) {
		w, err := rms.OpenWALStore(filepath.Join(dir, name), rms.WALOptions{Sync: rms.SyncGroup})
		if err != nil {
			return nil, err
		}
		ic.stores = append(ic.stores, w)
		return tracedStore{Store: w, t: t, name: name, cat: cat}, nil
	}

	// The gateway, as cmd/gateway builds it.
	if ic.keyPair, err = pisec.GenerateKeyPair(keyBits); err != nil {
		return nil, err
	}
	journal, err := openWAL("gateway.journal", catJournal)
	if err != nil {
		return nil, err
	}
	mailbox, err := openWAL("gateway.mailbox", catMailbox)
	if err != nil {
		return nil, err
	}
	gwRT := transport.NewPooled(transport.NewPooledHTTPClient(transport.DefaultMaxPerDest), transport.DefaultMaxPerDest)
	ic.gw, err = gateway.New(gateway.Config{
		Addr:            c.gateway,
		KeyPair:         ic.keyPair,
		Transport:       tracedRT{t: t, component: "gateway", inner: gwRT, seen: memberSeen},
		Flavour:         "aglets",
		Journal:         journal,
		Mailbox:         &gateway.MailboxConfig{Store: mailbox, TTL: 72 * time.Hour, Quota: push.DefaultQuota},
		Documents:       tracedStore{Store: rms.NewMemStore("gateway-docs", 0), t: t, name: "gateway.documents", cat: catDocs},
		OutboundWorkers: 32,
		Logf:            quietLogf,
	})
	if err != nil {
		return nil, err
	}
	if err := core.RegisterStandardApps(ic.gw); err != nil {
		return nil, err
	}
	handlers := []transport.Handler{
		tracedHandler{t: t, component: "gateway", cat: catGateway, inner: ic.gw.Handler()},
	}

	// The two bank hosts, as cmd/masd builds them.
	bg, cancel := context.WithCancel(context.Background())
	ic.cancel = cancel
	for i, flavour := range []string{"aglets", "voyager"} {
		addr := c.banks[i]
		name := "mas-" + flavour
		codec, err := atp.ByName(flavour)
		if err != nil {
			return nil, err
		}
		reg := services.NewRegistry()
		reg.Register(services.NewBank(addr, map[string]int64{"alice": 10_000, "bob": 5_000}).Services()...)
		jr, err := openWAL(name+".journal", catJournal)
		if err != nil {
			return nil, err
		}
		rt := tracedRT{t: t, component: name, inner: transport.NewPooledHTTPClient(0), seen: memberSeen}
		srv, err := mas.NewServer(mas.Config{
			Addr:        addr,
			Codec:       codec,
			Transport:   rt,
			Services:    reg,
			Journal:     jr,
			OnAgentMove: clusterpkg.LocationRelay(rt, addr, ""),
			Logf:        quietLogf,
		})
		if err != nil {
			return nil, err
		}
		rms.WALOf(jr).RegisterMetrics(srv.Metrics(), "pdagent_wal", "agent journal")
		handlers = append(handlers, tracedHandler{t: t, component: name, cat: catMAS, inner: srv.Handler()})
		ic.wg.Add(1)
		go func() {
			defer ic.wg.Done()
			tick := time.NewTicker(masRetryInterval)
			defer tick.Stop()
			for {
				select {
				case <-bg.Done():
					return
				case <-tick.C:
					srv.RetryParked(bg)
				}
			}
		}()
	}

	for i, l := range ic.listeners {
		srv := &http.Server{Handler: transport.NewHTTPHandler(handlers[i])}
		ic.servers = append(ic.servers, srv)
		ic.wg.Add(1)
		go func(l net.Listener) {
			defer ic.wg.Done()
			if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "benchmark: in-process server:", err)
			}
		}(l)
	}
	return c, nil
}

// stop shuts the listeners, waits for the serving and ticker
// goroutines, and closes the stores.
func (ic *inprocCluster) stop() {
	if ic.cancel != nil {
		ic.cancel()
	}
	for _, srv := range ic.servers {
		srv.Close() // parked long-polls are not worth a graceful wait
	}
	ic.wg.Wait()
	for _, l := range ic.listeners {
		l.Close() // already closed by its server unless start-up failed early
	}
	if ic.gw != nil {
		ic.gw.Close()
	}
	for _, st := range ic.stores {
		st.Close()
	}
}
