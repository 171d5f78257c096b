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
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// Fairness (G9) is the noisy-neighbour storm: an adversarial tenant
// ("hog") floods the dispatch path while a well-behaved tenant
// ("meek") trickles along at a fraction of capacity, both against one
// real gateway on a virtual clock (same discipline as Overload — real
// pack/unpack, key checks, admission; only time is simulated, so every
// count and percentile is machine-exact).
//
// Two regimes are contrasted. Fair runs the §12 multi-tenant control
// plane: the watermark shed is weighted-fair (tenants under their
// share of the in-flight budget stay admitted, so the hog absorbs the
// 503s) and admitted agents drain through a weighted-fair queue. FIFO
// is the pre-§12 world: one flat watermark, first-come service — the
// hog's arrival rate lets it monopolise both the admission slots and
// the server, and the meek tenant's latency rides the hog's backlog.

// FairnessConfig shapes one noisy-neighbour run.
type FairnessConfig struct {
	// HogOffered arrivals from the adversarial tenant, every HogEvery
	// of virtual time. Zero hogs runs the meek tenant solo (the
	// baseline the SLO multiple is measured against).
	HogOffered int
	HogEvery   time.Duration
	// MeekOffered arrivals from the well-behaved tenant, every
	// MeekEvery.
	MeekOffered int
	MeekEvery   time.Duration
	// ServiceEvery is the virtual per-agent service time of the single
	// server draining admitted agents.
	ServiceEvery time.Duration
	// SLO is the delivery latency objective.
	SLO time.Duration
	// MaxInFlight is the shed watermark.
	MaxInFlight int
	// HogWeight / MeekWeight are the tenants' weighted-fair shares
	// (default 1). Weights shape both the fair-shed protection share
	// and the WFQ service interleave.
	HogWeight  int
	MeekWeight int
	// Fair selects the §12 control plane (weighted-fair shed + WFQ
	// service); false runs the flat single-tenant watermark with FIFO
	// service.
	Fair bool
}

// TenantPoint is one tenant's slice of a fairness run.
type TenantPoint struct {
	Offered   int
	Admitted  int
	Shed      int // refusals (503 fair-shed or flat watermark)
	Delivered int
	WithinSLO int
	P50US     int64
	P99US     int64
	MaxUS     int64
}

// FairnessPoint is one fairness run's outcome.
type FairnessPoint struct {
	Hog  TenantPoint
	Meek TenantPoint
}

const (
	hogID  = "hog"
	meekID = "meek"
)

// Fairness runs one noisy-neighbour storm.
func Fairness(cfg FairnessConfig) (FairnessPoint, error) {
	var pt FairnessPoint
	if cfg.MeekOffered <= 0 || cfg.MeekEvery <= 0 || cfg.ServiceEvery <= 0 || cfg.SLO <= 0 || cfg.MaxInFlight <= 0 {
		return pt, fmt.Errorf("benchkit: fairness config must be positive: %+v", cfg)
	}
	if cfg.HogOffered > 0 && cfg.HogEvery <= 0 {
		return pt, fmt.Errorf("benchkit: fairness hog arrivals need a positive HogEvery")
	}
	kp, err := keyPair()
	if err != nil {
		return pt, err
	}
	weights := map[string]int{hogID: cfg.HogWeight, meekID: cfg.MeekWeight}
	var treg *tenant.Registry
	if cfg.Fair {
		treg = tenant.NewRegistry()
		for _, id := range []string{hogID, meekID} {
			if err := treg.Put(&tenant.Tenant{
				ID: id, Secret: "s-" + id,
				Limits: tenant.Limits{Weight: weights[id]},
			}); err != nil {
				return pt, err
			}
		}
	}
	var spawned []func()
	gw, err := gateway.New(gateway.Config{
		Addr:      "gw-fair",
		KeyPair:   kp,
		Transport: netsim.New(1).Transport(netsim.ZoneWired),
		Spawn:     func(fn func()) { spawned = append(spawned, fn) },
		FuelSlice: suspendingFuel,
		Shed:      &gateway.ShedConfig{MaxInFlight: cfg.MaxInFlight},
		Tenants:   treg,
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
	type account struct {
		id     string
		owner  string
		key    string
		point  *TenantPoint
		sojUS  []int64
		every  int64
		offers int
	}
	accounts := []*account{
		{id: hogID, owner: "dev-hog", point: &pt.Hog, every: int64(cfg.HogEvery), offers: cfg.HogOffered},
		{id: meekID, owner: "dev-meek", point: &pt.Meek, every: int64(cfg.MeekEvery), offers: cfg.MeekOffered},
	}
	for _, a := range accounts {
		secret := []byte("fair-secret-" + a.id)
		if cfg.Fair {
			gw.Registry().SetTenantSecret("echo", a.owner, secret, a.id)
		} else {
			gw.Registry().SetSecret("echo", a.owner, secret)
		}
		a.key = pisec.DispatchKey("echo", secret)
	}
	handler := gw.Handler()

	// One virtual single server drains admitted agents; the service
	// order is the regime under test — §12 WFQ across tenants, or the
	// flat FIFO the hog can monopolise.
	type job struct {
		acct    *account
		run     func()
		arrival int64
	}
	wfq := tenant.NewWFQ()
	var fifo []job
	enqueue := func(j job) {
		if cfg.Fair {
			wfq.Enqueue(j.acct.id, weights[j.acct.id], j)
		} else {
			fifo = append(fifo, j)
		}
	}
	dequeue := func() (job, bool) {
		if cfg.Fair {
			_, payload, ok := wfq.Dequeue()
			if !ok {
				return job{}, false
			}
			return payload.(job), true
		}
		if len(fifo) == 0 {
			return job{}, false
		}
		j := fifo[0]
		fifo = fifo[1:]
		return j, true
	}

	serverFree := int64(0)
	var inService *job
	var inServiceFinish int64
	complete := func(j *job, finish int64) {
		j.run() // agent executes and comes home; in-flight drops
		j.acct.point.Delivered++
		soj := finish - j.arrival
		us := soj / int64(time.Microsecond)
		j.acct.sojUS = append(j.acct.sojUS, us)
		if soj <= int64(cfg.SLO) {
			j.acct.point.WithinSLO++
		}
	}
	// advance runs every virtual completion due by now. Queue order is
	// decided over everything enqueued so far — exact while the server
	// is backlogged, which is the only regime these runs measure.
	advance := func(now int64) {
		for {
			if inService == nil {
				j, ok := dequeue()
				if !ok {
					return
				}
				start := serverFree
				if j.arrival > start {
					start = j.arrival
				}
				inService, inServiceFinish = &j, start+int64(cfg.ServiceEvery)
			}
			if inServiceFinish > now {
				return
			}
			complete(inService, inServiceFinish)
			serverFree = inServiceFinish
			inService = nil
		}
	}

	var body, nonce []byte
	dispatch := func(a *account, seq int, now int64) error {
		advance(now)
		nonce = append(nonce[:0], a.id...)
		nonce = strconv.AppendInt(append(nonce, '-'), int64(seq), 10)
		pi := &wire.PackedInformation{
			CodeID:      "echo",
			DispatchKey: a.key,
			Owner:       a.owner,
			Nonce:       string(nonce),
			Source:      SuspendingSource,
		}
		body, err = wire.AppendPack(body[:0], pi, compress.LZSS, nil)
		if err != nil {
			return err
		}
		before := len(spawned)
		resp := handler.Serve(context.Background(), &transport.Request{
			Path: "/pdagent/dispatch", Body: body,
		})
		a.point.Offered++
		switch {
		case resp.Status == transport.StatusUnavailable || resp.Status == transport.StatusTooManyRequests:
			a.point.Shed++
			return nil
		case !resp.IsOK():
			return fmt.Errorf("benchkit: fairness dispatch %s/%d: %d %s", a.id, seq, resp.Status, resp.Text())
		}
		if len(spawned) != before+1 {
			return fmt.Errorf("benchkit: fairness dispatch %s/%d admitted without spawning", a.id, seq)
		}
		a.point.Admitted++
		enqueue(job{acct: a, run: spawned[before], arrival: now})
		return nil
	}

	// Merge the two deterministic arrival streams in virtual-time
	// order (meek wins ties so the flood cannot starve it of its
	// arrival slot — ties are a modelling artifact, not a scheduler).
	hi, mi := 0, 0
	hog, meek := accounts[0], accounts[1]
	for hi < hog.offers || mi < meek.offers {
		ht, mt := int64(-1), int64(-1)
		if hi < hog.offers {
			ht = int64(hi) * hog.every
		}
		if mi < meek.offers {
			mt = int64(mi) * meek.every
		}
		if ht >= 0 && (mt < 0 || ht < mt) {
			if err := dispatch(hog, hi, ht); err != nil {
				return pt, err
			}
			hi++
		} else {
			if err := dispatch(meek, mi, mt); err != nil {
				return pt, err
			}
			mi++
		}
	}
	advance(int64(1) << 62) // drain everything admitted

	for _, a := range accounts {
		if len(a.sojUS) == 0 {
			continue
		}
		sort.Slice(a.sojUS, func(i, j int) bool { return a.sojUS[i] < a.sojUS[j] })
		a.point.P50US = quantileUS(a.sojUS, 0.50)
		a.point.P99US = quantileUS(a.sojUS, 0.99)
		a.point.MaxUS = a.sojUS[len(a.sojUS)-1]
	}
	return pt, nil
}
