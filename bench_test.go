// Benchmarks regenerating the paper's evaluation artefacts. One bench
// per experiment id from DESIGN.md §4; each reports the paper's metric
// as a custom unit (virtual seconds, bytes) alongside wall-clock cost.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// For the full printed series (the actual figures), run cmd/figures.
package pdagent_test

import (
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"pdagent/internal/benchkit"
	"pdagent/internal/compress"
	"pdagent/internal/experiments"
	"pdagent/internal/gateway"
	"pdagent/internal/rms"
)

// E1 — Figure 12: Internet connection time vs. transactions.

func BenchmarkFig12ConnectionTime(b *testing.B) {
	for _, n := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("pdagent/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := experiments.MeasurePDAgent(1, n)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(d.Seconds(), "vsec")
			}
		})
		b.Run(fmt.Sprintf("clientserver/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := experiments.MeasureClientServer(1, n)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(d.Seconds(), "vsec")
			}
		})
		b.Run(fmt.Sprintf("webbased/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := experiments.MeasureWebBased(1, n)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(d.Seconds(), "vsec")
			}
		})
	}
}

// E2 — Figure 13a: client-server completion-time variance over trials.

func BenchmarkFig13ClientServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13ClientServer(experiments.DefaultTrialSeeds, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Spread().Seconds(), "spread_vsec_n10")
	}
}

// E3 — Figure 13b: PDAgent completion-time stability over trials.

func BenchmarkFig13PDAgent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13PDAgent(experiments.DefaultTrialSeeds, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Spread().Seconds(), "spread_vsec_n10")
	}
}

// E4 — §4 claim: on-device storage footprint.

func BenchmarkFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Footprint(3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.TotalBytes), "db_bytes")
	}
}

// E5 — §2 claim: MA code size 1–8 KB, compressible.

func BenchmarkCodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CodeSizes()
		if err != nil {
			b.Fatal(err)
		}
		max := 0
		for _, r := range rows {
			if r.RawBytes > max {
				max = r.RawBytes
			}
		}
		b.ReportMetric(float64(max), "max_raw_bytes")
	}
}

// E6 — Figure 8: nearest-gateway selection by RTT probing.

func BenchmarkGatewaySelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.GatewaySelection(5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ProbeCost.Seconds(), "probe_vsec")
	}
}

// A1 — ablation: PI compression codec.

func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationCompression(1024)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Codec == "lzss" {
				b.ReportMetric(float64(r.WireBytes), "lzss_pi_bytes")
			}
		}
	}
}

// A2 — ablation: PI encryption on/off.

func BenchmarkAblationSecurity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSecurity(1024)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].WireBytes-rows[0].WireBytes), "seal_overhead_bytes")
	}
}

// A3 — ablation: MAS codec flavour.

func BenchmarkAblationFlavour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationFlavour(7)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Flavour == "voyager" {
				b.ReportMetric(float64(r.EnvelopeBytes), "voyager_envelope_bytes")
			}
		}
	}
}

// A4 — ablation: gateway selection policy.

func BenchmarkAblationSelectionPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSelectionPolicy(9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].MeanPIUpload.Seconds(), "probe_policy_vsec")
	}
}

// A5 — ablation: link sensitivity (crossover analysis).

func BenchmarkAblationLinkSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LinkSensitivity(1)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric((last.ClientServerN10 - last.PDAgentN10).Seconds(), "slow_link_gap_vsec")
	}
}

// G1 — gateway scaling (ISSUE 1): the lock-striped registry against the
// seed's single-lock design. "seedlock" replicates the seed gateway's
// layout exactly — one sync.Mutex guarding every map — "striped1" is
// the new code path collapsed to one shard, and "sharded32" is the
// production configuration; the seedlock→sharded32 gap is the registry
// refactor's payoff.

// benchReg is the slice of the registry surface the benchmarks drive;
// *gateway.Registry and the seed replica both satisfy it.
type benchReg interface {
	SetSecret(codeID, owner string, secret []byte)
	Secret(codeID, owner string) ([]byte, bool)
	RememberNonce(codeID, owner, nonce string) bool
	NextAgentID(gatewayAddr string) string
	CreateAgent(id, codeID, owner string)
	CompleteAgent(id, codeID, owner string, docID int, why string) []chan struct{}
	Agent(id string) (gateway.AgentStatus, bool)
}

// seedRegistry is the seed gateway's state layout — one mutex for
// everything — kept here as the benchmark baseline.
type seedRegistry struct {
	mu       sync.Mutex
	secrets  map[string][]byte
	dispatch map[string]*gateway.AgentStatus
	replay   map[string]*seedNonceWindow
	agentSeq int
}

// seedNonceWindow is the seed's bounded replay FIFO (1024 entries per
// subscription), replicated so the baseline's memory behaviour matches
// the code it stands in for.
type seedNonceWindow struct {
	seen  map[string]bool
	order []string
}

func newSeedRegistry() *seedRegistry {
	return &seedRegistry{
		secrets:  map[string][]byte{},
		dispatch: map[string]*gateway.AgentStatus{},
		replay:   map[string]*seedNonceWindow{},
	}
}

func (r *seedRegistry) key(codeID, owner string) string { return codeID + "\x00" + owner }

func (r *seedRegistry) SetSecret(codeID, owner string, secret []byte) {
	r.mu.Lock()
	r.secrets[r.key(codeID, owner)] = secret
	r.mu.Unlock()
}

func (r *seedRegistry) Secret(codeID, owner string) ([]byte, bool) {
	r.mu.Lock()
	s, ok := r.secrets[r.key(codeID, owner)]
	r.mu.Unlock()
	return s, ok
}

func (r *seedRegistry) RememberNonce(codeID, owner, nonce string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := r.key(codeID, owner)
	win := r.replay[k]
	if win == nil {
		win = &seedNonceWindow{seen: map[string]bool{}}
		r.replay[k] = win
	}
	if win.seen[nonce] {
		return false
	}
	win.seen[nonce] = true
	win.order = append(win.order, nonce)
	if len(win.order) > 1024 {
		delete(win.seen, win.order[0])
		win.order = win.order[1:]
	}
	return true
}

func (r *seedRegistry) NextAgentID(gatewayAddr string) string {
	r.mu.Lock()
	r.agentSeq++
	n := r.agentSeq
	r.mu.Unlock()
	return fmt.Sprintf("ag-%s-%d", gatewayAddr, n)
}

func (r *seedRegistry) CreateAgent(id, codeID, owner string) {
	r.mu.Lock()
	r.dispatch[id] = &gateway.AgentStatus{CodeID: codeID, Owner: owner}
	r.mu.Unlock()
}

func (r *seedRegistry) CompleteAgent(id, codeID, owner string, docID int, why string) []chan struct{} {
	r.mu.Lock()
	meta, ok := r.dispatch[id]
	if !ok {
		meta = &gateway.AgentStatus{CodeID: codeID, Owner: owner}
		r.dispatch[id] = meta
	}
	meta.Done = true
	meta.DocID = docID
	meta.LastWhy = why
	r.mu.Unlock()
	return nil
}

func (r *seedRegistry) Agent(id string) (gateway.AgentStatus, bool) {
	r.mu.Lock()
	meta, ok := r.dispatch[id]
	var st gateway.AgentStatus
	if ok {
		st = *meta
	}
	r.mu.Unlock()
	return st, ok
}

// benchRegistryDispatch drives the registry operations of one agent
// round trip as the handlers issue them: secret lookup, nonce
// check-and-insert, id allocation, dispatch record, then the device's
// status polls while the agent travels (the paper's offline workflow —
// dispatch, go away, poll, collect), and finally completion + result
// read.
func benchRegistryDispatch(b *testing.B, reg benchReg) {
	const owners = 256
	names := make([]string, owners)
	for i := range names {
		names[i] = fmt.Sprintf("dev-%d", i)
		reg.SetSecret("app.echo", names[i], []byte("secret"))
	}
	var seq atomic.Uint64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		nonce := make([]byte, 0, 24)
		for pb.Next() {
			n := seq.Add(1)
			owner := names[n%owners]
			if _, ok := reg.Secret("app.echo", owner); !ok {
				panic("secret lost")
			}
			nonce = strconv.AppendUint(append(nonce[:0], 'n', '-'), n, 10)
			reg.RememberNonce("app.echo", owner, string(nonce))
			id := reg.NextAgentID("gw-bench")
			reg.CreateAgent(id, "app.echo", owner)
			for poll := 0; poll < 24; poll++ {
				if _, ok := reg.Agent(id); !ok {
					panic("dispatch record lost")
				}
			}
			reg.CompleteAgent(id, "app.echo", owner, int(n), "")
			if st, ok := reg.Agent(id); !ok || !st.Done {
				panic("result lost")
			}
		}
	})
}

func BenchmarkGatewayRegistryDispatchParallel(b *testing.B) {
	b.Run("seedlock", func(b *testing.B) { benchRegistryDispatch(b, newSeedRegistry()) })
	b.Run("striped1", func(b *testing.B) { benchRegistryDispatch(b, gateway.NewRegistry(1)) })
	b.Run("sharded32", func(b *testing.B) { benchRegistryDispatch(b, gateway.NewRegistry(32)) })
}

// benchRegistryMixed is a read-heavy subscribe/result mix: ~90% status
// reads against a settled population, ~10% new subscriptions — the
// steady-state traffic of devices polling for results.
func benchRegistryMixed(b *testing.B, reg benchReg) {
	const agents = 4096
	ids := make([]string, agents)
	for i := range ids {
		id := reg.NextAgentID("gw-bench")
		reg.CreateAgent(id, "app.echo", "dev-0")
		reg.CompleteAgent(id, "app.echo", "dev-0", i, "")
		ids[i] = id
	}
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			if n%10 == 0 {
				reg.SetSecret("app.echo", fmt.Sprintf("dev-%d", n), []byte("secret"))
				continue
			}
			if st, ok := reg.Agent(ids[n%agents]); !ok || !st.Done {
				panic("result lost")
			}
		}
	})
}

func BenchmarkGatewayRegistryMixedParallel(b *testing.B) {
	b.Run("seedlock", func(b *testing.B) { benchRegistryMixed(b, newSeedRegistry()) })
	b.Run("striped1", func(b *testing.B) { benchRegistryMixed(b, gateway.NewRegistry(1)) })
	b.Run("sharded32", func(b *testing.B) { benchRegistryMixed(b, gateway.NewRegistry(32)) })
}

// G2 — dispatch fast path (ISSUE 3): compiled-program cache, zero-DOM
// wire decode, pooled buffers. The drivers live in internal/benchkit so
// cmd/bench measures exactly the same code and writes BENCH_4.json.

// BenchmarkGatewayDispatchE2E pushes whole unsealed Packed Information
// uploads through the dispatch handler in parallel: pack on the device
// side; unpack, key check, replay window, compile (a program-cache hit
// in steady state), document store and agent admission on the gateway
// side — which runs the echo agent's first slice, so each iteration is
// a whole zero-hop journey up to its stored result document.
func BenchmarkGatewayDispatchE2E(b *testing.B) {
	benchkit.DispatchE2E(b, true)
}

// BenchmarkGatewayDispatchE2ENoCache is the same pipeline with the
// program cache disabled — every dispatch re-lexes, re-parses and
// re-compiles the shipped source, the pre-ISSUE-3 behaviour.
func BenchmarkGatewayDispatchE2ENoCache(b *testing.B) {
	benchkit.DispatchE2E(b, false)
}

// BenchmarkCompileCache isolates the program cache: steady-state hits
// against a pinned package versus compile-and-insert misses.
func BenchmarkCompileCache(b *testing.B) {
	b.Run("hit", func(b *testing.B) { benchkit.CompileCache(b, true) })
	b.Run("miss", func(b *testing.B) { benchkit.CompileCache(b, false) })
}

// BenchmarkPIDecode measures the zero-DOM Packed Information decode; the
// kxmlnodes/op metric must stay 0.
func BenchmarkPIDecode(b *testing.B) {
	benchkit.PIDecode(b)
}

// BenchmarkWireUnpack measures the gateway-side body decode (LZSS and
// the sealed variant).
func BenchmarkWireUnpack(b *testing.B) {
	b.Run("lzss", func(b *testing.B) { benchkit.WireUnpack(b, compress.LZSS, false) })
	b.Run("lzss/sealed", func(b *testing.B) { benchkit.WireUnpack(b, compress.LZSS, true) })
}

// BenchmarkClusterDispatch measures G3 aggregate dispatch throughput
// over an n-member federation (routed: each upload goes to its key's
// ring home, the fleet fast path; naive: round-robin spray, most
// dispatches pay a cross-member forward hop).
func BenchmarkClusterDispatch(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4} {
		n := n
		b.Run(fmt.Sprintf("gateways=%d", n), func(b *testing.B) { benchkit.ClusterDispatch(b, n, true) })
	}
	b.Run("gateways=3/naive", func(b *testing.B) { benchkit.ClusterDispatch(b, 3, false) })
}

// BenchmarkClusterJourney measures one complete dispatch→result round
// trip through a 3-member federation, with and without cross-member
// forwarding and the result relay.
func BenchmarkClusterJourney(b *testing.B) {
	b.Run("local", func(b *testing.B) { benchkit.ClusterJourney(b, 3, false) })
	b.Run("forwarded", func(b *testing.B) { benchkit.ClusterJourney(b, 3, true) })
}

// BenchmarkMailboxEnqueueDrain measures the G4 store-and-forward cycle:
// enqueue into a durable per-device mailbox, poll, cursor ack.
func BenchmarkMailboxEnqueueDrain(b *testing.B) { benchkit.MailboxEnqueueDrain(b) }

// BenchmarkMailboxFanout measures long-poll fan-out: parked consumers
// woken wait-free by enqueues, at device-fleet scale.
func BenchmarkMailboxFanout(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		n := n
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) { benchkit.MailboxFanout(b, n) })
	}
}

// G6 — storage engine (ISSUE 7): the group-commit WAL behind the
// journaled dispatch path and the mailbox cycle. The wal/group vs
// wal/always gap is the group-commit payoff (one fsync acks a whole
// concurrent batch vs one fsync per op); wal/never shows the raw log
// cost; file is the legacy FileStore (no write-path fsync at all —
// process-crash durable only, so it races ahead of any honest policy).

func journalStore(b *testing.B, kind string, pol rms.SyncPolicy) rms.Store {
	b.Helper()
	store, err := rms.OpenDurable(kind, filepath.Join(b.TempDir(), "journal."+kind), pol)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	return store
}

// BenchmarkJournaledDispatchE2E is DispatchE2E with every admission
// committed to a durable agent journal — the end-to-end ops/s figure
// the ≥5× group-vs-always acceptance gate reads.
func BenchmarkJournaledDispatchE2E(b *testing.B) {
	for _, pol := range []rms.SyncPolicy{rms.SyncGroup, rms.SyncAlways, rms.SyncNever} {
		pol := pol
		b.Run("wal/"+pol.String(), func(b *testing.B) {
			benchkit.JournaledDispatchE2E(b, journalStore(b, "wal", pol))
		})
	}
	b.Run("file", func(b *testing.B) {
		benchkit.JournaledDispatchE2E(b, journalStore(b, "file", rms.SyncGroup))
	})
}

// BenchmarkMailboxEnqueueDrainWAL runs the G4 store-and-forward cycle
// on the durable engine with concurrent devices.
func BenchmarkMailboxEnqueueDrainWAL(b *testing.B) {
	for _, pol := range []rms.SyncPolicy{rms.SyncGroup, rms.SyncAlways, rms.SyncNever} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			benchkit.MailboxEnqueueDrainStore(b, journalStore(b, "wal", pol))
		})
	}
}

// BenchmarkChurnStorm measures the G5 reconnect storm: a seed-pinned
// fleet drains its mailboxes through the real delivery endpoints over
// a capacity-limited simulated network, entirely on virtual time. The
// vp50/vp99/vp999 metrics are virtual drain latencies (deterministic);
// ns/op is the wall cost of simulating the storm.
func BenchmarkChurnStorm(b *testing.B) {
	for _, n := range []int{5_000, 20_000} {
		n := n
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) { benchkit.ChurnStormBench(b, n) })
	}
}
