package main

import "time"

// This file is the benchmark's fixed contract: workloads, rates,
// latency limits, metric names, units and regression bounds.
// BENCHMARK.json repeats it for the driver; spec_test.go keeps the two
// in step.

type journeyKind int

const (
	kindEcho journeyKind = iota
	kindEBank
	kindReconnect
)

// workload is one traffic mix. Rates are constants sized on two shared
// cores at roughly a third of closed-loop capacity, so the system is
// busy enough for queueing to show and idle enough never to back up.
type workload struct {
	name    string
	why     string
	kind    journeyKind
	app     string
	secure  bool
	rate    float64 // journeys (reconnect: cycles) per second, open loop
	limitMs float64 // a journey counts as goodput when verified within this
}

const (
	appEcho     = "app.echo"
	appEBanking = "app.ebanking"
)

// workloads is the driver's list, the one BENCHMARK.json repeats.
var workloads = []workload{
	{
		name: "echo_sealed", kind: kindEcho, app: appEcho, secure: true, rate: 150, limitMs: 15,
		why: "zero hops, sealed: the gateway does nearly all the work and the pisec RSA unseal is its largest stage",
	},
	{
		name: "echo_plain", kind: kindEcho, app: appEcho, secure: false, rate: 150, limitMs: 12,
		why: "same journey with pisec bypassed: what is left is HTTP, group-commit fsync, push wake-up and wire decode",
	},
	{
		name: "ebank_journey", kind: kindEBank, app: appEBanking, secure: true, rate: 50, limitMs: 40,
		why: "three ATP transfers over three processes: mas, atp, mavm state and a journal commit per hop dominate",
	},
}

// byHand are workloads the program runs on request but the driver's
// list leaves out. reconnect_collect is the paper's disconnected
// workflow and the only one that reads the mailbox in batches, so it
// stays runnable; but at 20 bursty cycles a second it gives a fifth of
// the samples of an echo run and every burst starts on an idle machine,
// and its upload latency spread 37-39 % over ten runs of one commit
// where the driver checked it — no bound the contract allows holds that.
var byHand = []workload{
	{
		name: "reconnect_collect", kind: kindReconnect, app: appEcho, secure: true, rate: 20, limitMs: 25,
		why: "four uploads, device offline, one session collects all four: enqueue with no waiter, then batched poll and ack",
	},
}

func findWorkload(name string) *workload {
	for _, list := range [][]workload{workloads, byHand} {
		for i := range list {
			if list[i].name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// Load-model constants (see README.md).
const (
	poolDevices      = 64                     // pre-subscribed devices, one journey in flight each
	maxGenerators    = 2                      // generator goroutines and device connections, capped at nproc
	journeyDeadline  = 5 * time.Second        // anything slower is a failure
	warmup           = 2 * time.Second        // discarded head of every open-loop run
	masRetryInterval = 200 * time.Millisecond // masd -retry-interval: a parked hop is tail latency, not a 30 s strand
	slices           = 6                      // the window is measured in this many slices; latency and CPU metrics are the median slice
	setupRounds      = 30                     // set-ups per untraced run; setup_s is their median
	reconnectBatch   = 4                      // uploads per reconnect cycle
	reconnectOffline = 250 * time.Millisecond // minimum time between last upload and the session
	reconnectOffset  = 325 * time.Millisecond // session due time after its cycle's upload due time
	ebankBanks       = 2
	ebankTxPerBank   = 5
	tracedJourneys   = 200 // sequential journeys in the traced pass (time-boxed)
)

// Nominal readings of the reference server (ref.go): what its
// transactions cost on the machine the first numbers were recorded on
// while the host was quiet. A time metric is reported as measured ×
// nominal / the reference's reading in the same slice, so these only set
// the scale — on that machine, on a quiet day, reported ≈ measured.
const (
	refNominalMs    = 2.6  // median latency from due time
	refNominalCPUMs = 1.45 // CPU time per transaction
)

// metricSpec names one reported metric.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median it may worsen by; 0 for layer metrics
}

// endToEnd is what a handheld user (or the operator paying for the
// middle tier) sees. The same names are reported on every workload. The
// three time metrics and the latency limit behind goodput_per_s are held
// against the reference server (ref.go): as measured, ten runs of one
// commit spread 20-39 % where the driver checked them, and nothing else
// brought that down. Against the reference the same class of machine
// gives 3-7 % for CPU and 3-12 % for the p50s (ten seeds, interquartile
// range over median, calm hours and stormy ones), so the time bounds sit
// at the contract's maximum: tighter than about twice the spread and an
// innocent change is refused for the machine's noise. No tail percentile
// is an end-to-end metric: see README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"journey_ms_p50", "ms", "lower", 0.25},
	{"dispatch_ms_p50", "ms", "lower", 0.25},
	{"goodput_per_s", "1/s", "higher", 0.10},
	{"verified_share", "share", "higher", 0.005},
	{"cpu_ms_per_journey", "ms", "lower", 0.25},
	{"uplink_bytes_per_journey", "bytes", "lower", 0.02},
}

// perLayer metrics carry the layer (package) name as prefix. Sources:
// A = the untraced multi-process run (device decorators, /proc, /metrics
// deltas), B = the traced in-process pass, C = timed calls of a layer's
// public functions on bytes captured from the workload.
var perLayer = []metricSpec{
	{"device.requests_per_journey", "count", "lower", 0},    // A
	{"device.generator_lag_ms_p95", "ms", "lower", 0},       // A
	{"device.dispatch_ms_p90", "ms", "lower", 0},            // A
	{"device.journey_ms_p90", "ms", "lower", 0},             // A
	{"device.journey_ms_p95", "ms", "lower", 0},             // A
	{"device.journey_ms_p99", "ms", "lower", 0},             // A
	{"device.pack_us", "us", "lower", 0},                    // C
	{"transport.ping_rtt_us_p50", "us", "lower", 0},         // A
	{"transport.requests_per_journey", "count", "lower", 0}, // B
	{"transport.stack_us_per_journey", "us", "lower", 0},    // B
	{"gateway.cpu_ms_per_journey", "ms", "lower", 0},        // A
	{"gateway.rss_mb_peak", "MB", "lower", 0},               // A
	{"gateway.dispatch_handler_us_mean", "us", "lower", 0},  // A
	{"gateway.serve_self_us.dispatch", "us", "lower", 0},    // B
	{"gateway.serve_self_us.mailbox", "us", "lower", 0},     // B
	{"gateway.serve_self_us.transfer", "us", "lower", 0},    // B
	{"gateway.poll_park_us", "us", "lower", 0},              // B
	{"pisec.seal_us", "us", "lower", 0},                     // C
	{"pisec.open_us", "us", "lower", 0},                     // C
	{"compress.encode_us", "us", "lower", 0},                // C
	{"compress.decode_us", "us", "lower", 0},                // C
	{"compress.ratio", "ratio", "lower", 0},                 // C
	{"wire.unpack_us", "us", "lower", 0},                    // C
	{"wire.parse_pi_us", "us", "lower", 0},                  // C
	{"wire.result_encode_us", "us", "lower", 0},             // C
	{"wire.pi_bytes_packed", "bytes", "lower", 0},           // C
	{"progcache.hit_us", "us", "lower", 0},                  // C
	{"mascript.compile_us", "us", "lower", 0},               // C
	{"mas.cpu_ms_per_journey", "ms", "lower", 0},            // A
	{"mas.transfers_per_journey", "count", "lower", 0},      // A
	{"mas.transfer_us_mean", "us", "lower", 0},              // A
	{"mas.parked_per_kjourney", "count", "lower", 0},        // A
	{"mas.serve_self_us.transfer", "us", "lower", 0},        // B
	{"atp.encode_us", "us", "lower", 0},                     // C
	{"atp.decode_us", "us", "lower", 0},                     // C
	{"atp.image_bytes", "bytes", "lower", 0},                // C
	{"mavm.state_marshal_us", "us", "lower", 0},             // C
	{"mavm.state_unmarshal_us", "us", "lower", 0},           // C
	{"rms.fsyncs_per_journey", "count", "lower", 0},         // A
	{"rms.ops_per_fsync", "ratio", "higher", 0},             // A
	{"rms.max_fsync_ms", "ms", "lower", 0},                  // A
	{"rms.journal_us_per_journey", "us", "lower", 0},        // B
	{"rms.mailbox_us_per_journey", "us", "lower", 0},        // B
	{"push.enqueue_us", "us", "lower", 0},                   // C
	{"push.poll_us.b1", "us", "lower", 0},                   // C
	{"push.poll_us.b4", "us", "lower", 0},                   // C
	{"push.ack_us.b1", "us", "lower", 0},                    // C
	{"push.ack_us.b4", "us", "lower", 0},                    // C
	{"push.encode_entries_us.b1", "us", "lower", 0},         // C
	{"push.encode_entries_us.b4", "us", "lower", 0},         // C
	{"host.ref_ms_p50", "ms", "lower", 0},                   // A: the reference server's transactions during the run; the machine, not a layer
	{"host.ref_cpu_ms", "ms", "lower", 0},                   // A
	{"trace.seq_journey_ms_p50", "ms", "lower", 0},          // B
	{"trace.overhead_pct", "%", "lower", 0},                 // B
}
