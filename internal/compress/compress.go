// Package compress provides the on-device payload compression the
// PDAgent paper applies to mobile-agent code and Packed Information
// before wireless transfer ("using simple text compression algorithms,
// the compression process requires only small amount of CPU time").
//
// Four codecs share a self-describing frame so either side can decode
// without prior negotiation:
//
//   - None: identity passthrough (ablation baseline);
//   - LZSS: a dictionary coder with a 4 KiB window — the "simple text
//     compression" of the paper, implemented here from scratch; the
//     device's records and its uploads to a gateway not known to read
//     FlateDict;
//   - Flate: DEFLATE (deflate.go), the codec of a mailbox answer to a
//     device that does not say it reads FlateDict;
//   - FlateDict: DEFLATE primed with a frozen preset dictionary of the
//     platform's own markup (dict.go), the codec of a mailbox answer to
//     a device that sends "accept: 3", and of that device's uploads to
//     a gateway whose answers came in it.
//
// Both DEFLATE codecs decode with the standard library's inflater, so
// any RFC 1951 decoder primed with the same dictionary reads them.
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
	FlateDict
)

func (c Codec) String() string {
	switch c {
	case None:
		return "none"
	case LZSS:
		return "lzss"
	case Flate:
		return "flate"
	case FlateDict:
		return "flate-dict"
	default:
		return fmt.Sprintf("Codec(%d)", byte(c))
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
		return flatePrimer.deflate(dst, data), nil
	case FlateDict:
		return flateDictPrimer.deflate(dst, data), nil
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
	case Flate, FlateDict:
		var dict []byte
		if codec == FlateDict {
			dict = flateDict
		}
		out, err := flateDecompressAppend(dst, payload, size, dict)
		if err != nil {
			return dst[:base], err
		}
		return out, nil
	default:
		return dst, fmt.Errorf("%w: unknown codec %d", ErrCorrupt, codec)
	}
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
// match costs at least two bits, whether or not its distance reaches
// into a preset dictionary.
const flateMaxRatio = 1032

// flateDecompressAppend inflates payload, primed with dict (nil for
// none), into dst; the stream must decode to exactly size bytes.
func flateDecompressAppend(dst []byte, payload []byte, size int, dict []byte) ([]byte, error) {
	if size > flateMaxRatio*len(payload) {
		return nil, fmt.Errorf("%w: flate declared size %d exceeds what %d payload bytes can hold", ErrCorrupt, size, len(payload))
	}
	d := flateDecPool.Get().(*flateDec)
	defer func() {
		d.br.Reset(nil)
		flateDecPool.Put(d)
	}()
	d.br.Reset(payload)
	if err := d.fr.(flate.Resetter).Reset(d.br, dict); err != nil {
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
