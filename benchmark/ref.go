package main

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The reference server is what every time metric is measured against.
//
// The machine under the benchmark is a small VM on a shared host, and
// what it costs to run a millisecond of server work there — wake a
// process, do some arithmetic, commit a write — moves by 20–60 % for
// minutes at a time with the neighbours' load. No statistic of a
// 25-second run removes that, and no kernel timed inside the benchmark
// process tracks it (the daemons' slowdown depends on how they are woken
// and what they wait for, not on how fast a hot loop spins). What does
// track it is a second server of the same shape living through the same
// seconds: a separate process that sleeps on a socket, is woken by a
// request, parses XML, does RSA-sized modular arithmetic, commits to a
// log with fsync and answers. The benchmark sends it a fixed transaction
// at a fixed rate all through every run and reports each time metric as
//
//	measured × (the reference's nominal cost / its cost in the same slice)
//
// It is built from the standard library only and lives in the
// benchmark's own directory, so no change to the program moves it: a
// faster gateway is faster against it, a slower machine is not.

const (
	refCPUHeader = "Ref-Cpu-Ns" // the server's user+system CPU time so far
	refRate      = 47           // transactions per second; not a divisor of any workload's rate, so the two schedules drift through each other
	refFsyncs    = 3            // log commits per transaction (an echo journey makes 6, a sealed dispatch 2)
)

// refDoc is the transaction's payload: a small XML document, parsed on
// the way in and re-encoded on the way out.
type refDoc struct {
	XMLName xml.Name  `xml:"doc"`
	Items   []refItem `xml:"item"`
}

type refItem struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// refModExp is the transaction's arithmetic: one 1024-bit modular
// exponentiation, half an RSA-2048 private-key operation.
func refModExp() string {
	m := new(big.Int).Lsh(big.NewInt(1), 1024)
	m.Sub(m, big.NewInt(105))
	x := new(big.Int).Lsh(big.NewInt(3), 1015)
	e := new(big.Int).Sub(m, big.NewInt(2))
	return x.Exp(x, e, m).Text(16)
}

// refServe is the reference server's whole life: the benchmark starts it
// as a child process (`benchmark -ref-serve ADDR -ref-dir DIR`) and kills
// it when the run is over.
func refServe(addr, dir string) error {
	f, err := os.OpenFile(filepath.Join(dir, "ref.wal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var mu sync.Mutex
	record := bytes.Repeat([]byte{0x5a}, 300)
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("/work", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		var d refDoc
		if err == nil {
			err = xml.Unmarshal(body, &d)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		d.Items = append(d.Items, refItem{Name: "modexp", Value: refModExp()})
		mu.Lock()
		for i := 0; i < refFsyncs && err == nil; i++ {
			if _, err = f.Write(record); err == nil {
				err = f.Sync()
			}
		}
		mu.Unlock()
		out, merr := xml.Marshal(d)
		var ru syscall.Rusage
		if err = errors.Join(err, merr, syscall.Getrusage(syscall.RUSAGE_SELF, &ru)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// The server's own CPU clock rides on every answer: /proc counts
		// in 10 ms ticks, too coarse for a server this small.
		w.Header().Set(refCPUHeader, strconv.FormatInt(ru.Utime.Nano()+ru.Stime.Nano(), 10))
		w.Write(out)
	})
	return http.ListenAndServe(addr, mux)
}

// ref is a running reference server and the client that probes it.
type ref struct {
	addr   string
	dir    string
	proc   *proc
	client *http.Client
	body   []byte // the request document
	want   []byte // the answer a correct server gives
}

// startRef launches the reference server and waits for its ping.
func startRef(ctx context.Context, p *paths) (_ *ref, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.tmpDir, "ref-")
	if err != nil {
		return nil, err
	}
	r := &ref{dir: dir, client: &http.Client{
		Transport: &http.Transport{DialContext: (&net.Dialer{}).DialContext, MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   journeyDeadline,
	}}
	defer func() {
		if err != nil {
			r.stop()
		}
	}()
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, err
	}
	r.addr = addrs[0]
	if r.proc, err = startProc("ref", self, filepath.Join(dir, "ref.log"), "-ref-serve", r.addr, "-ref-dir", dir); err != nil {
		return nil, err
	}

	var d refDoc
	for i := 0; i < 12; i++ {
		d.Items = append(d.Items, refItem{Name: fmt.Sprintf("k%02d", i), Value: strings.Repeat("payment ledger ", 4)})
	}
	if r.body, err = xml.Marshal(d); err != nil {
		return nil, err
	}
	d.Items = append(d.Items, refItem{Name: "modexp", Value: refModExp()})
	if r.want, err = xml.Marshal(d); err != nil {
		return nil, err
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := r.client.Get("http://" + r.addr + "/ping")
		if err == nil {
			resp.Body.Close()
			return r, nil
		}
		if !r.proc.alive() || time.Now().After(deadline) || ctx.Err() != nil {
			log, _ := os.ReadFile(r.proc.logPath)
			return nil, fmt.Errorf("reference server not ready: %v\n%s", err, log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the reference server, waits for it and removes its log.
// Safe on a half-started ref and more than once.
func (r *ref) stop() {
	if r.proc != nil {
		r.proc.kill()
		r.proc = nil
	}
	_ = os.RemoveAll(r.dir)
}

// transact runs one reference transaction, checks the answer and
// returns the server's CPU clock as of that answer.
func (r *ref) transact(ctx context.Context) (cpuNs int64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+r.addr+"/work", bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, r.want) {
		return 0, fmt.Errorf("reference server answered %s, %d bytes (want 200, %d bytes)", resp.Status, len(got), len(r.want))
	}
	return strconv.ParseInt(resp.Header.Get(refCPUHeader), 10, 64)
}

// refSample is one reference transaction, timed like a journey: from
// when it was due.
type refSample struct {
	due   time.Duration // offset from the run's start
	ms    float64
	cpuNs int64 // the server's CPU clock when it answered
}

// probe sends reference transactions in an open loop — transaction k is
// due at start + k/refRate — from its own goroutine and connection until
// ctx ends, and returns their timings. The first failure ends it: a run
// without its reference cannot be reported.
func (r *ref) probe(ctx context.Context, start time.Time) ([]refSample, error) {
	interval := time.Second / refRate
	var out []refSample
	for k := 0; ; k++ {
		due := time.Duration(k) * interval
		sleepUntil(ctx, start.Add(due))
		if ctx.Err() != nil {
			return out, nil
		}
		cpuNs, err := r.transact(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return out, nil
			}
			return out, fmt.Errorf("reference transaction %d: %w", k, err)
		}
		out = append(out, refSample{due: due, ms: msSince(start.Add(due)), cpuNs: cpuNs})
	}
}

// probeInBackground runs probe on its own goroutine. The returned stop
// ends it and hands back what it gathered; calling it again is harmless
// (and returns nothing), so a caller can both defer it and use it.
func (r *ref) probeInBackground(ctx context.Context, start time.Time) (stop func() ([]refSample, error)) {
	type probed struct {
		samples []refSample
		err     error
	}
	done := make(chan probed, 1)
	ctx, cancel := context.WithCancel(ctx)
	go func() {
		samples, err := r.probe(ctx, start)
		done <- probed{samples, err}
		close(done)
	}()
	return func() ([]refSample, error) {
		cancel()
		p := <-done
		return p.samples, p.err
	}
}
