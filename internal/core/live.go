package core

import (
	"context"
	"fmt"
	"sync"

	"pdagent/internal/atp"
	"pdagent/internal/gateway"
	"pdagent/internal/mas"
	"pdagent/internal/pisec"
	"pdagent/internal/services"
	"pdagent/internal/transport"
)

// HandlerHolder lets a listener be opened before the component that
// will serve on it exists (components need their own address at
// construction time). It serves 503 until Set is called.
type HandlerHolder struct {
	mu sync.RWMutex
	h  transport.Handler
}

// Set installs the real handler.
func (hh *HandlerHolder) Set(h transport.Handler) {
	hh.mu.Lock()
	hh.h = h
	hh.mu.Unlock()
}

// Serve implements transport.Handler.
func (hh *HandlerHolder) Serve(ctx context.Context, req *transport.Request) *transport.Response {
	hh.mu.RLock()
	h := hh.h
	hh.mu.RUnlock()
	if h == nil {
		return transport.Errorf(transport.StatusUnavailable, "component starting")
	}
	return h.Serve(ctx, req)
}

// LiveConfig configures a real-transport deployment.
type LiveConfig struct {
	// KeyBits sizes the gateway key (default pisec.DefaultKeyBits).
	KeyBits int
	// Serve opens a listener for a handler and returns its address and
	// a stop function. Tests pass an httptest factory; cmds bind real
	// ports.
	Serve func(h transport.Handler) (addr string, stop func())
	// Transport reaches the served components (default
	// transport.HTTPClient).
	Transport transport.RoundTripper
	// Logf, when set, receives diagnostics from all components.
	Logf func(format string, args ...any)
}

// LiveWorld is a running live deployment: one gateway (aglets flavour)
// and two bank hosts (aglets and voyager), each running its Upkeep at
// mas.DefaultUpkeepInterval until Stop.
type LiveWorld struct {
	GatewayAddr string
	BankAddrs   []string
	Gateway     *gateway.Gateway
	Banks       map[string]*services.Bank

	stops []func()
}

// NewLiveWorld starts a gateway and two bank MAS hosts on real
// listeners.
func NewLiveWorld(cfg LiveConfig) (*LiveWorld, error) {
	if cfg.Serve == nil {
		return nil, fmt.Errorf("core: LiveConfig needs a Serve factory")
	}
	if cfg.KeyBits == 0 {
		cfg.KeyBits = pisec.DefaultKeyBits
	}
	if cfg.Transport == nil {
		cfg.Transport = &transport.HTTPClient{}
	}
	w := &LiveWorld{Banks: map[string]*services.Bank{}}
	ctx, cancel := context.WithCancel(context.Background())
	var upkeeps sync.WaitGroup
	w.stops = append(w.stops, func() { cancel(); upkeeps.Wait() })
	upkeep := func(fn func(context.Context)) {
		upkeeps.Add(1)
		go func() { defer upkeeps.Done(); mas.Every(ctx, mas.DefaultUpkeepInterval, fn) }()
	}

	startHost := func(flavour string) (string, *services.Bank, error) {
		holder := &HandlerHolder{}
		addr, stop := cfg.Serve(holder)
		w.stops = append(w.stops, stop)
		bank := services.NewBank(addr, map[string]int64{"alice": 10_000, "bob": 5_000})
		reg := services.NewRegistry()
		reg.Register(bank.Services()...)
		codec, err := atp.ByName(flavour)
		if err != nil {
			return "", nil, err
		}
		srv, err := mas.NewServer(mas.Config{
			Addr:      addr,
			Codec:     codec,
			Transport: cfg.Transport,
			Services:  reg,
			Logf:      cfg.Logf,
		})
		if err != nil {
			return "", nil, err
		}
		holder.Set(srv.Handler())
		upkeep(func(ctx context.Context) { srv.Upkeep(ctx) })
		return addr, bank, nil
	}

	for _, flavour := range []string{"aglets", "voyager"} {
		addr, bank, err := startHost(flavour)
		if err != nil {
			w.Stop()
			return nil, err
		}
		w.BankAddrs = append(w.BankAddrs, addr)
		w.Banks[addr] = bank
	}

	kp, err := pisec.GenerateKeyPair(cfg.KeyBits)
	if err != nil {
		w.Stop()
		return nil, err
	}
	holder := &HandlerHolder{}
	addr, stop := cfg.Serve(holder)
	w.stops = append(w.stops, stop)
	gw, err := gateway.New(gateway.Config{
		Addr:      addr,
		KeyPair:   kp,
		Transport: cfg.Transport,
		Logf:      cfg.Logf,
	})
	if err != nil {
		w.Stop()
		return nil, err
	}
	if err := RegisterStandardApps(gw); err != nil {
		w.Stop()
		return nil, err
	}
	w.stops = append(w.stops, gw.Close)
	holder.Set(gw.Handler())
	upkeep(gw.Upkeep)
	w.GatewayAddr = addr
	w.Gateway = gw
	return w, nil
}

// Stop shuts down all listeners.
func (w *LiveWorld) Stop() {
	for _, stop := range w.stops {
		stop()
	}
	w.stops = nil
}
