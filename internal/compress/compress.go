// Package compress provides the on-device payload compression the
// PDAgent paper applies to mobile-agent code and Packed Information
// before wireless transfer ("using simple text compression algorithms,
// the compression process requires only small amount of CPU time").
//
// Three codecs share a self-describing frame so either side can decode
// without prior negotiation:
//
//   - None: identity passthrough (ablation baseline);
//   - LZSS: a dictionary coder with a 4 KiB window — the "simple text
//     compression" of the paper, implemented here from scratch;
//   - Flate: stdlib DEFLATE as a stronger reference point.
//
// Frame format: magic 'Z', codec id byte, uvarint decoded length,
// payload. Decode dispatches on the codec id.
package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Codec identifies a compression algorithm.
type Codec byte

// Supported codecs.
const (
	None Codec = iota
	LZSS
	Flate
)

func (c Codec) String() string {
	switch c {
	case None:
		return "none"
	case LZSS:
		return "lzss"
	case Flate:
		return "flate"
	default:
		return fmt.Sprintf("Codec(%d)", byte(c))
	}
}

// ParseCodec maps a codec name to its id.
func ParseCodec(name string) (Codec, error) {
	switch name {
	case "none", "":
		return None, nil
	case "lzss":
		return LZSS, nil
	case "flate":
		return Flate, nil
	default:
		return None, fmt.Errorf("compress: unknown codec %q", name)
	}
}

const frameMagic = 'Z'

// MaxDecodedSize bounds the decoded length a frame may declare, so a
// corrupt header cannot trigger an enormous allocation. Below it, a
// declared length the payload cannot decode to is refused as well,
// before anything is allocated for it.
const MaxDecodedSize = 64 << 20

// IsFrame reports whether b begins with the frame magic. No XML
// document can begin with it, so a reader that takes either a frame or
// a raw document tells the two apart by this byte alone.
func IsFrame(b []byte) bool { return len(b) > 0 && b[0] == frameMagic }

// ErrCorrupt is returned when a frame fails structural validation.
var ErrCorrupt = errors.New("compress: corrupt frame")

// Encode compresses data with the chosen codec and wraps it in a frame.
// It is AppendEncode into a fresh buffer.
func Encode(codec Codec, data []byte) ([]byte, error) {
	return AppendEncode(nil, codec, data)
}

// AppendEncode compresses data with the chosen codec, appends the frame
// to dst and returns the extended slice. The hot transfer paths thread
// pooled buffers through here so steady-state encoding performs no
// allocation beyond occasional growth.
func AppendEncode(dst []byte, codec Codec, data []byte) ([]byte, error) {
	base := len(dst)
	dst = append(dst, frameMagic, byte(codec))
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	switch codec {
	case None:
		return append(dst, data...), nil
	case LZSS:
		return lzssCompressAppend(dst, data), nil
	case Flate:
		out, err := flateCompressAppend(dst, data)
		if err != nil {
			return dst[:base], err
		}
		return out, nil
	default:
		return dst[:base], fmt.Errorf("compress: unknown codec %d", codec)
	}
}

// Decode unwraps a frame produced by Encode and returns the original
// bytes. It is AppendDecode into a fresh buffer.
func Decode(frame []byte) ([]byte, error) {
	return AppendDecode(nil, frame)
}

// AppendDecode unwraps a frame, appends the decoded bytes to dst and
// returns the extended slice. dst must not alias frame.
func AppendDecode(dst []byte, frame []byte) ([]byte, error) {
	base := len(dst)
	codec, size, payload, err := parseFrame(frame)
	if err != nil {
		return dst, err
	}
	switch codec {
	case None:
		if len(payload) != size {
			return dst, fmt.Errorf("%w: identity length mismatch", ErrCorrupt)
		}
		return append(dst, payload...), nil
	case LZSS:
		out, err := lzssDecompressAppend(dst, payload, size)
		if err != nil {
			return dst[:base], err
		}
		return out, nil
	case Flate:
		out, err := flateDecompressAppend(dst, payload, size)
		if err != nil {
			return dst[:base], err
		}
		return out, nil
	default:
		return dst, fmt.Errorf("%w: unknown codec %d", ErrCorrupt, codec)
	}
}

// appendWriter is an io.Writer appending into a byte slice, the shim
// that lets the pooled flate writer emit straight into a caller buffer.
type appendWriter struct{ buf []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// flateEnc bundles a reusable flate writer with its output shim so one
// pool entry covers both.
type flateEnc struct {
	aw appendWriter
	fw *flate.Writer
}

var flateEncPool = sync.Pool{New: func() any {
	e := &flateEnc{}
	fw, err := flate.NewWriter(&e.aw, flate.BestCompression)
	if err != nil {
		// BestCompression is a valid level; NewWriter cannot fail on it.
		panic(err)
	}
	e.fw = fw
	return e
}}

func flateCompressAppend(dst []byte, data []byte) ([]byte, error) {
	e := flateEncPool.Get().(*flateEnc)
	e.aw.buf = dst
	e.fw.Reset(&e.aw)
	if _, err := e.fw.Write(data); err != nil {
		e.aw.buf = nil
		flateEncPool.Put(e)
		return nil, fmt.Errorf("compress: flate write: %w", err)
	}
	if err := e.fw.Close(); err != nil {
		e.aw.buf = nil
		flateEncPool.Put(e)
		return nil, fmt.Errorf("compress: flate close: %w", err)
	}
	out := e.aw.buf
	e.aw.buf = nil // never retain caller memory in the pool
	flateEncPool.Put(e)
	return out, nil
}

// flateDec bundles a reusable flate reader with its input shim.
type flateDec struct {
	br *bytes.Reader
	fr io.ReadCloser
}

var flateDecPool = sync.Pool{New: func() any {
	d := &flateDec{br: bytes.NewReader(nil)}
	d.fr = flate.NewReader(d.br)
	return d
}}

// flateMaxRatio bounds what a DEFLATE stream can decode to: a 258-byte
// match costs at least two bits.
const flateMaxRatio = 1032

func flateDecompressAppend(dst []byte, payload []byte, size int) ([]byte, error) {
	if size > flateMaxRatio*len(payload) {
		return nil, fmt.Errorf("%w: flate declared size %d exceeds what %d payload bytes can hold", ErrCorrupt, size, len(payload))
	}
	d := flateDecPool.Get().(*flateDec)
	defer func() {
		d.br.Reset(nil)
		flateDecPool.Put(d)
	}()
	d.br.Reset(payload)
	if err := d.fr.(flate.Resetter).Reset(d.br, nil); err != nil {
		return nil, fmt.Errorf("%w: flate: %v", ErrCorrupt, err)
	}
	base := len(dst)
	dst = slices.Grow(dst, size)[:base+size]
	if _, err := io.ReadFull(d.fr, dst[base:]); err != nil {
		return nil, fmt.Errorf("%w: flate: %v", ErrCorrupt, err)
	}
	// The stream must end exactly at the declared size.
	var one [1]byte
	if n, _ := d.fr.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("%w: flate output exceeds header size %d", ErrCorrupt, size)
	}
	return dst, nil
}

// FrameCodec returns the codec id recorded in a frame without decoding.
func FrameCodec(frame []byte) (Codec, error) {
	codec, _, _, err := parseFrame(frame)
	return codec, err
}

func parseFrame(frame []byte) (Codec, int, []byte, error) {
	if len(frame) < 3 || frame[0] != frameMagic {
		return 0, 0, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	codec := Codec(frame[1])
	size, n := binary.Uvarint(frame[2:])
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: bad length varint", ErrCorrupt)
	}
	if size > MaxDecodedSize {
		return 0, 0, nil, fmt.Errorf("%w: declared size %d exceeds limit", ErrCorrupt, size)
	}
	return codec, int(size), frame[2+n:], nil
}

// Ratio returns compressed/original size for reporting; 1.0 means no
// gain. Empty input reports 1.0.
func Ratio(codec Codec, data []byte) float64 {
	if len(data) == 0 {
		return 1.0
	}
	enc, err := Encode(codec, data)
	if err != nil {
		return 1.0
	}
	return float64(len(enc)) / float64(len(data))
}
