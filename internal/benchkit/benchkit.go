// Package benchkit holds the G2 benchmark drivers shared between the
// repo's `go test -bench` suite (bench_test.go) and the machine-
// readable harness (cmd/bench): both must measure exactly the same
// code, so the drivers live once, here. Importing the testing package
// from a non-test package is deliberate — testing.Benchmark is the
// supported way to run these from a binary.
package benchkit

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"pdagent/internal/compress"
	"pdagent/internal/gateway"
	"pdagent/internal/kxml"
	"pdagent/internal/mavm"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/progcache"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// EchoSource is the benchmark agent: one deliver, no travel. It
// finishes inside its admission (the first fuel slice runs there), so
// a dispatch of it is a whole zero-hop journey and nothing reaches
// Spawn.
const EchoSource = `deliver("echo", params());`

// SuspendingSource is an echo that needs more than suspendingFuel ops:
// at a gateway with that FuelSlice its admission suspends it (and
// journals it, once), and the function Spawn receives is the rest of
// its journey — what the virtual-time drivers run as "service", and
// what keeps the journal commit in the journaled dispatch measurement.
const (
	SuspendingSource = `let i = 0; while i < 64 { i = i + 1; } deliver("echo", params());`
	suspendingFuel   = 64
)

var (
	kpOnce sync.Once
	kp     *pisec.KeyPair
	kpErr  error
)

// keyPair returns a process-wide 1024-bit RSA key (generation is slow;
// the benchmarks measure dispatch, not keygen).
func keyPair() (*pisec.KeyPair, error) {
	kpOnce.Do(func() { kp, kpErr = pisec.GenerateKeyPair(1024) })
	return kp, kpErr
}

// benchPI returns a representative dispatch PI: the echo agent plus a
// small mixed parameter set, the shape a real handheld uploads.
func benchPI(key string) *wire.PackedInformation {
	return &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: key,
		Owner:       "dev-bench",
		Nonce:       "n-bench",
		Source:      EchoSource,
		Params: map[string]mavm.Value{
			"account": mavm.Str("alice"),
			"amount":  mavm.Int(250),
			"rate":    mavm.Float(1.25),
			"targets": mavm.NewList(mavm.Str("hk-a"), mavm.Str("hk-b")),
		},
	}
}

// DispatchE2E measures the full device→gateway dispatch pipeline in
// parallel: pack (XML encode + LZSS + frame) on the client side, then
// unpack, key check, replay window, compile (cache hit or full compile
// depending on useCache), document store and agent admission on the
// gateway side — and, since admission runs the agent's first slice,
// the echo agent's whole zero-hop journey: VM run, image and result
// encode, result document store, registry completion.
func DispatchE2E(b *testing.B, useCache bool) {
	dispatchE2E(b, useCache, nil)
}

// JournaledDispatchE2E is DispatchE2E with a durable agent journal
// attached (G6) and an agent that suspends in its admission: every
// admission writes and commits one journal entry (the agent never
// resumes — Spawn is a no-op), so the measurement is dominated by the
// store's commit path — the fsync policy comparison the group-commit
// WAL exists for. The caller owns store and closes it after the run.
//
// Parallelism is forced well past GOMAXPROCS: group commit batches
// concurrent committers, and a gateway under load has hundreds of
// in-flight dispatches regardless of core count — a leader's fsync is
// a blocking syscall, so waiting committers pile up even on one core.
func JournaledDispatchE2E(b *testing.B, store rms.Store) {
	b.SetParallelism(32)
	dispatchE2E(b, true, store)
	if c, ok := store.(interface{ Fsyncs() uint64 }); ok && b.N > 0 {
		b.ReportMetric(float64(c.Fsyncs())/float64(b.N), "fsyncs/op")
	}
}

func dispatchE2E(b *testing.B, useCache bool, journal rms.Store) {
	kp, err := keyPair()
	if err != nil {
		b.Fatal(err)
	}
	source, fuel := EchoSource, uint64(0)
	if journal != nil {
		source, fuel = SuspendingSource, suspendingFuel
	}
	gw, err := gateway.New(gateway.Config{
		Addr:           "gw-bench",
		KeyPair:        kp,
		Transport:      netsim.New(1).Transport(netsim.ZoneWired),
		Spawn:          func(func()) {},
		FuelSlice:      fuel,
		NoProgramCache: !useCache,
		Journal:        journal,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	if err := gw.AddCodePackage(&wire.CodePackage{
		CodeID: "echo", Name: "Echo", Version: "1", Source: source,
	}); err != nil {
		b.Fatal(err)
	}
	secret := []byte("bench-secret")
	gw.Registry().SetSecret("echo", "dev-bench", secret)
	key := pisec.DispatchKey("echo", secret)
	handler := gw.Handler()
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var body, nonce []byte
		for pb.Next() {
			n := seq.Add(1)
			nonce = strconv.AppendUint(append(nonce[:0], 'n', '-'), n, 10)
			pi := &wire.PackedInformation{
				CodeID:      "echo",
				DispatchKey: key,
				Owner:       "dev-bench",
				Nonce:       string(nonce),
				Source:      source,
			}
			var err error
			body, err = wire.AppendPack(body[:0], pi, compress.LZSS, nil)
			if err != nil {
				panic(err)
			}
			resp := handler.Serve(context.Background(), &transport.Request{
				Path: "/pdagent/dispatch", Body: body,
			})
			if !resp.IsOK() {
				panic(fmt.Sprintf("dispatch: %d %s", resp.Status, resp.Text()))
			}
		}
	})
}

// CompileCache measures the program cache itself: hit=true loops
// lookups of one pinned source (the dispatch steady state), hit=false
// compiles a distinct source every iteration (the miss + insert cost,
// dominated by the compiler the hit path skips).
func CompileCache(b *testing.B, hit bool) {
	cache := progcache.New(0)
	prog, _, err := cache.CompileString(EchoSource)
	if err != nil {
		b.Fatal(err)
	}
	cache.Pin("echo", EchoSource, prog)
	b.ReportAllocs()
	b.ResetTimer()
	if hit {
		for i := 0; i < b.N; i++ {
			if _, ok, err := cache.CompileString(EchoSource); err != nil || !ok {
				b.Fatalf("expected cache hit (ok=%v err=%v)", ok, err)
			}
		}
		return
	}
	var src []byte
	for i := 0; i < b.N; i++ {
		src = strconv.AppendInt(append(src[:0], `deliver("n", `...), int64(i), 10)
		src = append(src, `);`...)
		if _, ok, err := cache.CompileString(string(src)); err != nil || ok {
			b.Fatalf("expected cache miss (ok=%v err=%v)", ok, err)
		}
	}
}

// PIDecode measures ParsePackedInformation over a representative
// dispatch body on the zero-DOM path, reporting kxml node allocations
// per op (which must be zero) as a custom metric.
func PIDecode(b *testing.B) {
	doc, err := benchPI("k").EncodeXML()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	nodesBefore := kxml.NodeAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.ParsePackedInformation(doc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(kxml.NodeAllocs()-nodesBefore)/float64(b.N), "kxmlnodes/op")
}

// PIDecodeNodeAllocs returns (allocs/op, kxml node allocs) for one
// representative PI decode — the machine-checkable zero-DOM evidence
// cmd/bench records.
func PIDecodeNodeAllocs() (allocsPerOp float64, nodeAllocs uint64, err error) {
	doc, err := benchPI("k").EncodeXML()
	if err != nil {
		return 0, 0, err
	}
	// Warm the scratch pools so steady state is measured.
	if _, err := wire.ParsePackedInformation(doc); err != nil {
		return 0, 0, err
	}
	before := kxml.NodeAllocs()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := wire.ParsePackedInformation(doc); err != nil {
			panic(err)
		}
	})
	return allocs, kxml.NodeAllocs() - before, nil
}

// WirePack measures the device-side upload pipeline (AppendPack into a
// reused buffer) for the given codec, sealed or not.
func WirePack(b *testing.B, codec compress.Codec, sealed bool) {
	kp, err := keyPair()
	if err != nil {
		b.Fatal(err)
	}
	var pub *pisec.PublicKey
	if sealed {
		pub = kp.Public()
	}
	pi := benchPI("k")
	b.ReportAllocs()
	b.ResetTimer()
	var body []byte
	for i := 0; i < b.N; i++ {
		if body, err = wire.AppendPack(body[:0], pi, codec, pub); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(body)))
}

// WireUnpack measures the gateway-side body decode (open + decompress +
// zero-DOM parse) for the given codec, sealed or not.
func WireUnpack(b *testing.B, codec compress.Codec, sealed bool) {
	kp, err := keyPair()
	if err != nil {
		b.Fatal(err)
	}
	var pub *pisec.PublicKey
	if sealed {
		pub = kp.Public()
	}
	body, err := wire.Pack(benchPI("k"), codec, pub)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unpack(body, kp); err != nil {
			b.Fatal(err)
		}
	}
}
