package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pdagent/internal/atp"
	"pdagent/internal/compress"
	"pdagent/internal/mascript"
	"pdagent/internal/mavm"
	"pdagent/internal/pisec"
	"pdagent/internal/progcache"
	"pdagent/internal/push"
	"pdagent/internal/rms"
	"pdagent/internal/wire"
)

// Source C: timed calls of each layer's public functions on the bytes
// the workload itself put on the wire (captured in the traced pass).
// Every number is the median of n individually timed calls, so a layer
// metric here is directly comparable to the same layer's share of the
// traced budget — and a layer the workload bypasses reads zero.

// medianUs times n samples of fn and returns the median in
// microseconds. Each sample runs fn `batch` times back to back and
// divides, so a sub-microsecond call is not lost in the clock's own
// cost. fn's error aborts the measurement.
func medianUs(n, batch int, fn func() error) (float64, error) {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, float64(time.Since(t0))/float64(time.Microsecond)/float64(batch))
	}
	return median(samples), nil
}

// keep marks v as used, so the compiler cannot drop the timed call that
// produced it, and passes the call's error on.
func keep[T any](v T, err error) error {
	runtime.KeepAlive(v)
	return err
}

func meanLen(bodies [][]byte) float64 {
	total := 0
	for _, b := range bodies {
		total += len(b)
	}
	return perOr0(float64(total), float64(len(bodies)))
}

// layerCalls fills res with every source-C metric, timing n calls each.
func layerCalls(p *paths, wl *workload, caps *captures, res *result, n int) error {
	body := medianSized(caps.dispatch)
	resultDoc := medianSized(caps.results)
	if body == nil || resultDoc == nil {
		return fmt.Errorf("layer calls: the traced pass captured no dispatch body or result document")
	}
	var firstErr error
	set := func(name string, batch int, fn func() error) {
		us, err := medianUs(n, batch, fn)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("layer call %s: %w", name, err)
		}
		res.set(perLayer, name, us)
	}
	zero := func(names ...string) {
		for _, name := range names {
			res.set(perLayer, name, 0)
		}
	}

	// pisec: only a sealed workload has an envelope to open.
	frame := body
	var sealKey *pisec.PublicKey
	if wl.secure {
		sealKey = caps.keyPair.Public()
		var err error
		if frame, err = pisec.AppendOpen(nil, caps.keyPair, body); err != nil {
			return fmt.Errorf("layer calls: opening the captured body: %w", err)
		}
		var buf []byte
		set("pisec.open_us", 1, func() (err error) { buf, err = pisec.AppendOpen(buf[:0], caps.keyPair, body); return })
		set("pisec.seal_us", 1, func() (err error) { buf, err = pisec.AppendSeal(buf[:0], sealKey, frame); return })
	} else {
		zero("pisec.open_us", "pisec.seal_us")
	}

	// compress: the frame inside the envelope and the XML inside the frame.
	doc, err := compress.Decode(frame)
	if err != nil {
		return fmt.Errorf("layer calls: decompressing the captured frame: %w", err)
	}
	var cbuf []byte
	set("compress.encode_us", 1, func() (err error) { cbuf, err = compress.AppendEncode(cbuf[:0], compress.LZSS, doc); return })
	set("compress.decode_us", 1, func() (err error) { cbuf, err = compress.AppendDecode(cbuf[:0], frame); return })
	res.set(perLayer, "compress.ratio", perOr0(float64(len(frame)), float64(len(doc))))

	// wire: the gateway's unpack (unseal + decompress + parse), the parse
	// alone, the device's pack, and the result document's encode.
	pi, err := wire.ParsePackedInformation(doc)
	if err != nil {
		return fmt.Errorf("layer calls: parsing the captured PI: %w", err)
	}
	rd, err := wire.ParseResultDocument(resultDoc)
	if err != nil {
		return fmt.Errorf("layer calls: parsing the captured result: %w", err)
	}
	set("wire.unpack_us", 1, func() error { return keep(wire.Unpack(body, caps.keyPair)) })
	set("wire.parse_pi_us", 1, func() error { return keep(wire.ParsePackedInformation(doc)) })
	set("wire.result_encode_us", 1, func() error { return keep(rd.EncodeXML()) })
	res.set(perLayer, "wire.pi_bytes_packed", meanLen(caps.dispatch))
	var pbuf []byte
	set("device.pack_us", 1, func() (err error) { pbuf, err = wire.AppendPack(pbuf[:0], pi, compress.LZSS, sealKey); return })

	// progcache / mascript: the hit every catalogue dispatch takes, and
	// the compile it saves.
	cache := progcache.New(0)
	prog, _, err := cache.CompileString(pi.Source)
	if err != nil {
		return fmt.Errorf("layer calls: compiling the captured source: %w", err)
	}
	cache.Pin(pi.CodeID, pi.Source, prog)
	set("progcache.hit_us", 100, func() error { prog, _, err := cache.CompileString(pi.Source); return keep(prog, err) })
	set("mascript.compile_us", 1, func() error { return keep(mascript.Compile(pi.Source)) })

	// atp / mavm: only a workload whose agent travels has a transfer image.
	if image := medianSized(caps.transfers); image != nil {
		codec, im, err := decodeImage(image)
		if err != nil {
			return fmt.Errorf("layer calls: %w", err)
		}
		iprog, err := mavm.UnmarshalProgram(im.Program)
		if err != nil {
			return fmt.Errorf("layer calls: captured image's program: %w", err)
		}
		vm, err := mavm.UnmarshalState(iprog, im.State)
		if err != nil {
			return fmt.Errorf("layer calls: captured image's state: %w", err)
		}
		set("atp.decode_us", 1, func() error { return keep(codec.Decode(image)) })
		set("atp.encode_us", 1, func() error { return keep(codec.Encode(im)) })
		res.set(perLayer, "atp.image_bytes", meanLen(caps.transfers))
		set("mavm.state_marshal_us", 1, func() error { return keep(mavm.MarshalState(vm)) })
		set("mavm.state_unmarshal_us", 1, func() error { return keep(mavm.UnmarshalState(iprog, im.State)) })
	} else {
		zero("atp.decode_us", "atp.encode_us", "atp.image_bytes", "mavm.state_marshal_us", "mavm.state_unmarshal_us")
	}
	if firstErr != nil {
		return firstErr
	}
	return pushCalls(p, resultDoc, res, n)
}

// decodeImage decodes a captured transfer body with whichever flavour
// wrote it.
func decodeImage(body []byte) (atp.Codec, *atp.Image, error) {
	for _, name := range atp.Flavours() {
		codec, err := atp.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		if im, err := codec.Decode(body); err == nil {
			return codec, im, nil
		}
	}
	return nil, nil, fmt.Errorf("captured transfer image decodes with no known flavour")
}

// pushCalls times the mailbox hub over a real group-commit WAL, the way
// the gateway runs it, in the two shapes the workloads produce: one
// entry enqueued and collected at a time (the echo journeys' wake-up
// path) and four enqueued then collected by one poll and one ack (the
// reconnect session). Enqueue and Ack include their WAL commit.
func pushCalls(p *paths, resultDoc []byte, res *result, n int) error {
	dir, err := os.MkdirTemp(p.tmpDir, "push-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wal, err := rms.OpenWALStore(filepath.Join(dir, "mailbox.wal"), rms.WALOptions{Sync: rms.SyncGroup})
	if err != nil {
		return err
	}
	defer wal.Close()
	hub, err := push.NewHub(push.Config{Store: wal})
	if err != nil {
		return err
	}
	defer hub.Close()
	const device = "bench-device"
	hub.Touch(device)

	var enqueue []float64
	us := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }
	seq, cursor := 0, uint64(0)
	for _, shape := range []struct {
		batch, rounds int
		suffix        string
	}{{1, n, ".b1"}, {reconnectBatch, (n + reconnectBatch - 1) / reconnectBatch, ".b4"}} {
		var poll, encode, ack []float64
		for round := 0; round < shape.rounds; round++ {
			for i := 0; i < shape.batch; i++ {
				seq++
				id := fmt.Sprintf("ag-bench-%d", seq)
				t0 := time.Now()
				if _, _, err := hub.Enqueue(device, push.KindResult, id, "result:"+id, resultDoc); err != nil {
					return fmt.Errorf("layer call push.enqueue_us: %w", err)
				}
				enqueue = append(enqueue, us(t0))
			}
			t0 := time.Now()
			entries, watermark, evicted, err := hub.Poll(device, cursor, 32)
			if err != nil || len(entries) != shape.batch {
				return fmt.Errorf("layer call push.poll_us: %d entries, want %d (err %v)", len(entries), shape.batch, err)
			}
			poll = append(poll, us(t0))
			t0 = time.Now()
			runtime.KeepAlive(push.EncodeEntries(device, entries, watermark, evicted))
			encode = append(encode, us(t0))
			t0 = time.Now()
			if _, err := hub.Ack(device, watermark); err != nil {
				return fmt.Errorf("layer call push.ack_us: %w", err)
			}
			ack = append(ack, us(t0))
			cursor = watermark
		}
		res.set(perLayer, "push.poll_us"+shape.suffix, median(poll))
		res.set(perLayer, "push.encode_entries_us"+shape.suffix, median(encode))
		res.set(perLayer, "push.ack_us"+shape.suffix, median(ack))
	}
	res.set(perLayer, "push.enqueue_us", median(enqueue))
	return nil
}
