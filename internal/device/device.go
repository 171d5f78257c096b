// Package device implements the PDAgent Platform that runs on the
// wireless handheld (Figure 4, left side): the System API beneath the
// UI. It provides the paper's §3.1–3.6 functions:
//
//   - service subscription: download MA code from a trusted gateway and
//     store it (compressed) in the on-device RMS database;
//   - service execution: collect parameters offline, derive the
//     dispatch key, build the Packed Information (XML → compress →
//     encrypt), and upload it through the Network Manager;
//   - service result collection: download and parse the XML result
//     document on reconnection;
//   - high-performance service management: download the gateway address
//     list and pick the nearest gateway by RTT probing (Figure 8),
//     refreshing the list when the best RTT exceeds the threshold;
//   - mobile agent management: status, clone, retract, dispose (§3.6).
//
// The platform is UI-less; cmd/pdagent layers a CLI on top and the
// examples drive it programmatically.
package device

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/kxml"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// Errors reported by platform operations.
var (
	// ErrNotSubscribed means Dispatch was called for a code id with no
	// stored subscription.
	ErrNotSubscribed = errors.New("device: not subscribed to this code package")
	// ErrNotReady means the agent has not returned to the gateway yet.
	ErrNotReady = errors.New("device: result not ready")
	// ErrNoGateways means no gateway list is available.
	ErrNoGateways = errors.New("device: gateway list empty")
	// ErrAllGatewaysFar means every probed gateway exceeded the RTT
	// threshold and no central server was configured to refresh from.
	ErrAllGatewaysFar = errors.New("device: all gateways beyond RTT threshold")
)

// Config configures a Platform.
type Config struct {
	// Owner identifies this device/user to gateways.
	Owner string
	// Transport is the wireless-side round-tripper.
	Transport transport.RoundTripper
	// Store is the on-device RMS database (default: in-memory).
	Store rms.Store
	// Codec compresses stored code and outgoing PIs (default LZSS, the
	// paper's "simple text compression").
	Codec compress.Codec
	// Secure seals PIs to the gateway key per Figure 7 (default true;
	// the ablation benches switch it off).
	Secure bool
	// RTTThreshold triggers a gateway-list refresh when the best probe
	// exceeds it (default 2 s, in journey-clock time for simulations).
	RTTThreshold time.Duration
	// Central is the central server address for gateway-list refreshes
	// (optional).
	Central string
	// Retries bounds network attempts per operation (default 3).
	Retries int
	// RetryBase is the first retry's backoff; later attempts double it
	// (jittered to 50–100% of the nominal value) up to RetryMax, so a
	// flapping uplink never hot-loops. In simulations the backoff is
	// charged to the journey clock instead of sleeping. Default 200ms.
	RetryBase time.Duration
	// RetryMax caps the exponential backoff (default 5s).
	RetryMax time.Duration
	// Logf, when set, receives diagnostics.
	Logf func(format string, args ...any)
}

// subscription is the in-memory form of a stored subscription.
type subscription struct {
	sub   *wire.Subscription
	key   *pisec.PublicKey
	hash  string // wire.CodeHash of the package source
	recID int    // backing record
}

// Platform is the PDAgent platform instance on one device.
type Platform struct {
	cfg Config

	mu       sync.Mutex
	gateways []string
	subs     map[string]*subscription // code id -> subscription
	pending  map[string]pendingInfo   // agent id -> info
	pendIDs  map[string]int           // agent id -> record id
	listRec  int                      // record id of the gateway list, 0 = none

	// Device-session state (§7): the gateway whose mailbox holds this
	// device's notifications, per-gateway delivery cursors, and the
	// offline dispatch queue that drains on reconnect.
	sessionGW string
	cursors   map[string]uint64 // gateway -> acked mailbox watermark
	tokens    map[string]string // gateway -> mailbox access token
	mboxRec   int               // record id of the mailbox-state record
	queued    map[string]*queuedDispatch
	queueIDs  []string // queue order (dispatch ids, FIFO)
	// unread holds, per gateway, the mailbox batch a dispatch answer
	// carried and PollMailbox has not processed yet. Memory only and at
	// most one per gateway: the cursor moves when PollMailbox processes
	// the batch, so one lost with the process is offered again.
	unread map[string]*mailBatch
	// collected remembers journeys whose results were obtained OUTSIDE
	// mailbox delivery (direct or repair Collect), so a mailbox copy of
	// the same result arriving later is recognisable as a duplicate —
	// and a result for a journey in neither pending nor collected
	// (e.g. a clone whose clone response was lost) is still delivered.
	collected      map[string]bool
	collectedOrder []string // FIFO for the bounded window
	collectedRec   int      // record id of the collected record

	// packCap is the last upload's packed size: the next body buffer's
	// capacity, so packing does not grow it step by step.
	packCap atomic.Int64

	// rng drives retry jitter; seeded from the owner so simulations
	// stay reproducible across runs.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// queuedDispatch is one offline-queued service execution.
type queuedDispatch struct {
	recID int
	pi    *wire.PackedInformation
}

type pendingInfo struct {
	Gateway string
	CodeID  string
}

// NewPlatform creates a platform, replaying any state already in the
// store (the device database survives restarts).
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.Owner == "" {
		return nil, errors.New("device: config missing Owner")
	}
	if cfg.Transport == nil {
		return nil, errors.New("device: config missing Transport")
	}
	if cfg.Store == nil {
		cfg.Store = rms.NewMemStore("pdagent-db", 0)
	}
	if cfg.RTTThreshold == 0 {
		cfg.RTTThreshold = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 3
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = 200 * time.Millisecond
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 5 * time.Second
	}
	p := &Platform{
		cfg:       cfg,
		subs:      map[string]*subscription{},
		pending:   map[string]pendingInfo{},
		pendIDs:   map[string]int{},
		cursors:   map[string]uint64{},
		tokens:    map[string]string{},
		unread:    map[string]*mailBatch{},
		queued:    map[string]*queuedDispatch{},
		collected: map[string]bool{},
		rng:       rand.New(rand.NewSource(int64(hashOwner(cfg.Owner)))),
	}
	if err := p.load(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Platform) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// --- persistence ---------------------------------------------------------

// Records are XML documents compressed with the platform codec; the
// root element name identifies the record type (subscription, pending,
// gateway-list). The paper stores agent code compressed in the RMS
// database; we compress every record the same way.

func (p *Platform) putRecord(doc []byte) (int, error) {
	id := 0
	err := p.setRecord(&id, doc)
	return id, err
}

// setRecord stores doc in the record *recID names, or adds it and sets
// *recID when there is none yet: the state kept as one record each —
// the gateway list, the mailbox state, the collected set, a
// subscription — is rewritten in place.
func (p *Platform) setRecord(recID *int, doc []byte) error {
	framed, err := compress.Encode(p.cfg.Codec, doc)
	if err != nil {
		return err
	}
	if *recID != 0 {
		return p.cfg.Store.Set(*recID, framed)
	}
	id, err := p.cfg.Store.Add(framed)
	if err != nil {
		return err
	}
	*recID = id
	return nil
}

func (p *Platform) load() error {
	ids, err := p.cfg.Store.IDs()
	if err != nil {
		return fmt.Errorf("device: reading store: %w", err)
	}
	for _, id := range ids {
		framed, err := p.cfg.Store.Get(id)
		if err != nil {
			return fmt.Errorf("device: record %d: %w", id, err)
		}
		doc, err := compress.Decode(framed)
		if err != nil {
			p.logf("device %s: dropping corrupt record %d: %v", p.cfg.Owner, id, err)
			continue
		}
		root, err := kxml.ParseBytes(doc)
		if err != nil {
			p.logf("device %s: dropping unparseable record %d: %v", p.cfg.Owner, id, err)
			continue
		}
		switch root.Name {
		case "subscription":
			sub, err := wire.ParseSubscription(doc)
			if err != nil {
				p.logf("device %s: bad subscription record %d: %v", p.cfg.Owner, id, err)
				continue
			}
			entry := &subscription{sub: sub, hash: wire.CodeHash(sub.Package.Source), recID: id}
			if sub.GatewayKey != "" {
				if key, err := pisec.ParsePublicKey(sub.GatewayKey); err == nil {
					entry.key = key
				}
			}
			p.subs[sub.Package.CodeID] = entry
		case "pending":
			agent := root.AttrDefault("agent", "")
			if agent == "" {
				continue
			}
			p.pending[agent] = pendingInfo{
				Gateway: root.AttrDefault("gateway", ""),
				CodeID:  root.AttrDefault("code-id", ""),
			}
			p.pendIDs[agent] = id
		case "gateway-list":
			if gl, err := wire.ParseGatewayList(doc); err == nil {
				p.gateways = gl.Addresses
				p.listRec = id
			}
		case "mbox-state":
			p.sessionGW = root.AttrDefault("gateway", "")
			for _, c := range root.FindAll("cursor") {
				if gw := c.AttrDefault("gw", ""); gw != "" {
					seq, _ := strconv.ParseUint(c.AttrDefault("seq", "0"), 10, 64)
					p.cursors[gw] = seq
				}
			}
			for _, c := range root.FindAll("token") {
				if gw := c.AttrDefault("gw", ""); gw != "" {
					p.tokens[gw] = c.AttrDefault("v", "")
				}
			}
			p.mboxRec = id
		case "collected":
			for _, c := range root.FindAll("a") {
				if agent := c.TextContent(); agent != "" && !p.collected[agent] {
					p.collected[agent] = true
					p.collectedOrder = append(p.collectedOrder, agent)
				}
			}
			p.collectedRec = id
		case "queued-dispatch":
			qid := root.AttrDefault("id", "")
			pi, err := wire.ParsePackedInformation([]byte(root.TextContent()))
			if qid == "" || err != nil {
				p.logf("device %s: dropping bad queued dispatch record %d: %v", p.cfg.Owner, id, err)
				continue
			}
			p.queued[qid] = &queuedDispatch{recID: id, pi: pi}
			p.queueIDs = append(p.queueIDs, qid)
		default:
			p.logf("device %s: unknown record type %q", p.cfg.Owner, root.Name)
		}
	}
	return nil
}

// Footprint returns the on-device database size in bytes (compressed
// records), the quantity behind the paper's 120 KB claim.
func (p *Platform) Footprint() (int, error) { return p.cfg.Store.Size() }

// --- network manager ------------------------------------------------------

// hashOwner seeds the per-device jitter source. Runs once per
// Platform, so the stdlib hash is fine (no need for a fourth inlined
// FNV in this repo).
func hashOwner(owner string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(owner))
	return h.Sum32()
}

// backoff returns the jittered exponential delay before retry attempt
// (attempt >= 1): nominal RetryBase<<(attempt-1) capped at RetryMax,
// drawn uniformly from 50–100% of nominal so a fleet of devices on the
// same flapping uplink never retries in lockstep.
func (p *Platform) backoff(attempt int) time.Duration {
	d := p.cfg.RetryBase
	for i := 1; i < attempt && d < p.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > p.cfg.RetryMax {
		d = p.cfg.RetryMax
	}
	p.rngMu.Lock()
	j := p.rng.Float64()
	p.rngMu.Unlock()
	return d/2 + time.Duration(j*float64(d/2))
}

// roundTrip sends with bounded retries: lost messages (netsim.ErrLost),
// partition timeouts and transient transport failures are retried
// behind a jittered exponential backoff, honouring context
// cancellation between attempts. Each attempt and each backoff costs
// journey-clock time, so a flapping uplink in a simulation never
// hot-loops the virtual schedule either.
func (p *Platform) roundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	var lastErr error
	for attempt := 0; attempt < p.cfg.Retries; attempt++ {
		if attempt > 0 {
			if err := netsim.Sleep(ctx, p.backoff(attempt)); err != nil {
				return nil, fmt.Errorf("device: %s%s cancelled during retry backoff: %w", addr, req.Path, err)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("device: %s%s: %w", addr, req.Path, err)
		}
		resp, err := p.cfg.Transport.RoundTrip(ctx, addr, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("device: %s%s after %d attempt(s): %w", addr, req.Path, p.cfg.Retries, lastErr)
}

// --- gateway list and RTT selection (Figure 8) ----------------------------

// SetGateways installs a gateway list directly (tests, manual config).
func (p *Platform) SetGateways(addrs []string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.storeGatewaysLocked(addrs)
}

func (p *Platform) storeGatewaysLocked(addrs []string) error {
	p.gateways = append([]string(nil), addrs...)
	return p.setRecord(&p.listRec, (&wire.GatewayList{Addresses: p.gateways}).EncodeXML())
}

// Gateways returns the current gateway list.
func (p *Platform) Gateways() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.gateways...)
}

// RefreshGateways downloads the address list from the central server
// (or any gateway serving /pdagent/gateways).
func (p *Platform) RefreshGateways(ctx context.Context, from string) error {
	resp, err := p.roundTrip(ctx, from, &transport.Request{Path: "/pdagent/gateways"})
	if err != nil {
		return err
	}
	if !resp.IsOK() {
		return fmt.Errorf("device: gateway list from %s: %w", from, resp.Err())
	}
	gl, err := wire.ParseGatewayList(resp.Body)
	if err != nil {
		return err
	}
	if len(gl.Addresses) == 0 {
		return ErrNoGateways
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.storeGatewaysLocked(gl.Addresses)
}

// ProbeResult is one gateway's measured round-trip time.
type ProbeResult struct {
	Addr string
	RTT  time.Duration
	Err  error
}

// ProbeGateways sends the Figure 8 one-byte probe to every gateway on
// the list and reports each RTT (journey-clock time in simulations).
func (p *Platform) ProbeGateways(ctx context.Context) ([]ProbeResult, error) {
	addrs := p.Gateways()
	if len(addrs) == 0 {
		return nil, ErrNoGateways
	}
	results := make([]ProbeResult, 0, len(addrs))
	for _, addr := range addrs {
		rtt, err := p.probeOne(ctx, addr)
		results = append(results, ProbeResult{Addr: addr, RTT: rtt, Err: err})
	}
	return results, nil
}

func (p *Platform) probeOne(ctx context.Context, addr string) (time.Duration, error) {
	clock := netsim.ClockFrom(ctx)
	var start time.Duration
	var wallStart time.Time
	if clock != nil {
		start = clock.Now()
	} else {
		wallStart = time.Now()
	}
	_, err := p.cfg.Transport.RoundTrip(ctx, addr, &transport.Request{Path: "/pdagent/ping"})
	if err != nil {
		return 0, err
	}
	if clock != nil {
		return clock.Now() - start, nil
	}
	return time.Since(wallStart), nil
}

// SelectGateway probes all gateways and returns the nearest one. If
// the best RTT exceeds the threshold it refreshes the list from the
// central server (when configured) and probes once more — the §3.5
// policy.
func (p *Platform) SelectGateway(ctx context.Context) (string, time.Duration, error) {
	best, rtt, err := p.selectOnce(ctx)
	if err != nil {
		return "", 0, err
	}
	if rtt <= p.cfg.RTTThreshold {
		return best, rtt, nil
	}
	if p.cfg.Central == "" {
		return "", 0, fmt.Errorf("%w (best %v from %s)", ErrAllGatewaysFar, rtt, best)
	}
	p.logf("device %s: best RTT %v over threshold %v, refreshing list", p.cfg.Owner, rtt, p.cfg.RTTThreshold)
	if err := p.RefreshGateways(ctx, p.cfg.Central); err != nil {
		return "", 0, err
	}
	return p.selectOnce(ctx)
}

func (p *Platform) selectOnce(ctx context.Context) (string, time.Duration, error) {
	probes, err := p.ProbeGateways(ctx)
	if err != nil {
		return "", 0, err
	}
	best := ""
	bestRTT := time.Duration(0)
	for _, pr := range probes {
		if pr.Err != nil {
			continue
		}
		if best == "" || pr.RTT < bestRTT {
			best, bestRTT = pr.Addr, pr.RTT
		}
	}
	if best == "" {
		return "", 0, fmt.Errorf("device: every gateway probe failed")
	}
	return best, bestRTT, nil
}

// --- service subscription (§3.1) -------------------------------------------

// Catalogue downloads a gateway's application catalogue.
func (p *Platform) Catalogue(ctx context.Context, gw string) ([]wire.CatalogueEntry, error) {
	resp, err := p.roundTrip(ctx, gw, &transport.Request{Path: "/pdagent/catalog"})
	if err != nil {
		return nil, err
	}
	if !resp.IsOK() {
		return nil, resp.Err()
	}
	_, entries, err := wire.ParseCatalogue(resp.Body)
	return entries, err
}

// Subscribe downloads a code package from a gateway and stores it in
// the device database. Resubscribing replaces the stored entry.
func (p *Platform) Subscribe(ctx context.Context, gw, codeID string) error {
	req := &transport.Request{Path: "/pdagent/subscribe"}
	req.SetHeader("code-id", codeID)
	req.SetHeader("owner", p.cfg.Owner)
	resp, err := p.roundTrip(ctx, gw, req)
	if err != nil {
		return err
	}
	if !resp.IsOK() {
		return fmt.Errorf("device: subscribing to %q at %s: %w", codeID, gw, resp.Err())
	}
	sub, err := wire.ParseSubscription(resp.Body)
	if err != nil {
		return err
	}
	var key *pisec.PublicKey
	if sub.GatewayKey != "" {
		if key, err = pisec.ParsePublicKey(sub.GatewayKey); err != nil {
			return fmt.Errorf("device: gateway key in subscription: %w", err)
		}
	}

	hash := wire.CodeHash(sub.Package.Source)

	p.mu.Lock()
	defer p.mu.Unlock()
	doc, err := sub.EncodeXML()
	if err != nil {
		return err
	}
	recID := 0
	if old, exists := p.subs[codeID]; exists {
		recID = old.recID
	}
	if err := p.setRecord(&recID, doc); err != nil {
		return err
	}
	p.subs[codeID] = &subscription{sub: sub, key: key, hash: hash, recID: recID}
	p.logf("device %s: subscribed to %q at %s", p.cfg.Owner, codeID, gw)
	return nil
}

// Subscriptions lists stored code ids, sorted.
func (p *Platform) Subscriptions() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.subs))
	for id := range p.subs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Unsubscribe removes a stored code package.
func (p *Platform) Unsubscribe(codeID string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	entry, ok := p.subs[codeID]
	if !ok {
		return ErrNotSubscribed
	}
	if err := p.cfg.Store.Delete(entry.recID); err != nil {
		return err
	}
	delete(p.subs, codeID)
	return nil
}
