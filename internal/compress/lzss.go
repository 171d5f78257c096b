package compress

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// LZSS parameters: a 4 KiB sliding window with 12-bit offsets and 4-bit
// lengths, the classic configuration for memory-constrained devices of
// the paper's era.
const (
	lzWindowBits = 12
	lzWindowSize = 1 << lzWindowBits // 4096
	lzMinMatch   = 3
	lzMaxMatch   = lzMinMatch + 15 // 18

	lzHashBits = 14
	lzHashSize = 1 << lzHashBits
	// lzMaxChain bounds match-search work per position.
	lzMaxChain = 64

	// lzMaxRatio bounds what a token stream can decode to: at best a flag
	// byte and eight 2-byte pairs (17 bytes) yield 8 × lzMaxMatch = 144.
	lzMaxRatio = 9
)

func lzHash(b []byte) uint32 {
	// Multiplicative hash over the 3-byte minimum match.
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16
	return (v * 2654435761) >> (32 - lzHashBits)
}

// lzEncState is the match-finder working set — the hash head table and
// per-position chain links. Both are sized by the hash space or the
// input, so they are pooled rather than reallocated per Encode; prev
// needs no clearing because every slot read was written earlier in the
// same run, and head is re-initialised below.
type lzEncState struct {
	head [lzHashSize]int32
	prev []int32
}

var lzEncPool = sync.Pool{New: func() any { return new(lzEncState) }}

// lzssCompress and lzssDecompress are the fresh-buffer forms of the
// append pair below (tests exercise the primitives directly).
func lzssCompress(src []byte) []byte { return lzssCompressAppend(nil, src) }

func lzssDecompress(src []byte, size int) ([]byte, error) {
	return lzssDecompressAppend(nil, src, size)
}

// lzssCompressAppend encodes src as a token stream appended to dst:
// each flag byte governs the following 8 tokens (bit set = literal
// byte, bit clear = 2-byte offset/length pair).
func lzssCompressAppend(dst []byte, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	out := slices.Grow(dst, len(src)/2+len(src)/8+16)
	st := lzEncPool.Get().(*lzEncState)
	defer lzEncPool.Put(st)
	head := &st.head
	for i := range head {
		head[i] = -1
	}
	if cap(st.prev) < len(src) {
		st.prev = make([]int32, len(src))
	}
	prev := st.prev[:len(src)]

	var flagPos int
	var flagBit uint
	newFlag := func() {
		flagPos = len(out)
		out = append(out, 0)
		flagBit = 0
	}
	newFlag()
	emitToken := func(literal bool) {
		if flagBit == 8 {
			newFlag()
		}
		if literal {
			out[flagPos] |= 1 << flagBit
		}
		flagBit++
	}

	insert := func(i int) {
		if i+lzMinMatch > len(src) {
			return
		}
		h := lzHash(src[i:])
		prev[i] = head[h]
		head[h] = int32(i)
	}

	i := 0
	for i < len(src) {
		bestLen, bestDist := 0, 0
		if i+lzMinMatch <= len(src) {
			h := lzHash(src[i:])
			limit := i - lzWindowSize
			maxLen := lzMaxMatch
			if rem := len(src) - i; rem < maxLen {
				maxLen = rem
			}
			for cand, chain := head[h], 0; cand >= 0 && int(cand) > limit && chain < lzMaxChain; cand, chain = prev[cand], chain+1 {
				c := int(cand)
				if src[c] != src[i] {
					continue
				}
				l := 0
				for l < maxLen && src[c+l] == src[i+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestDist = l, i-c
					if l == maxLen {
						break
					}
				}
			}
		}
		if bestLen >= lzMinMatch {
			emitToken(false)
			// Pair: 12-bit distance-1, 4-bit length-min.
			v := uint16((bestDist-1)<<4) | uint16(bestLen-lzMinMatch)
			var pair [2]byte
			binary.BigEndian.PutUint16(pair[:], v)
			out = append(out, pair[0], pair[1])
			for k := 0; k < bestLen; k++ {
				insert(i + k)
			}
			i += bestLen
		} else {
			emitToken(true)
			out = append(out, src[i])
			insert(i)
			i++
		}
	}
	return out
}

// lzssDecompressAppend decodes a token stream into exactly size bytes
// appended to dst. Back-references are resolved against the decoded
// region only (never into dst's existing prefix).
func lzssDecompressAppend(dst []byte, src []byte, size int) ([]byte, error) {
	if size > lzMaxRatio*len(src) {
		return nil, fmt.Errorf("%w: lzss declared size %d exceeds what %d payload bytes can hold", ErrCorrupt, size, len(src))
	}
	base := len(dst)
	out := slices.Grow(dst, size)
	i := 0
	for len(out)-base < size {
		if i >= len(src) {
			return nil, fmt.Errorf("%w: lzss truncated stream", ErrCorrupt)
		}
		flags := src[i]
		i++
		for bit := uint(0); bit < 8 && len(out)-base < size; bit++ {
			if flags&(1<<bit) != 0 {
				if i >= len(src) {
					return nil, fmt.Errorf("%w: lzss truncated literal", ErrCorrupt)
				}
				out = append(out, src[i])
				i++
				continue
			}
			if i+1 >= len(src) {
				return nil, fmt.Errorf("%w: lzss truncated pair", ErrCorrupt)
			}
			v := binary.BigEndian.Uint16(src[i : i+2])
			i += 2
			dist := int(v>>4) + 1
			length := int(v&0xF) + lzMinMatch
			if dist > len(out)-base {
				return nil, fmt.Errorf("%w: lzss back-reference beyond start (dist %d at %d)", ErrCorrupt, dist, len(out)-base)
			}
			if len(out)-base+length > size {
				return nil, fmt.Errorf("%w: lzss output overruns declared size", ErrCorrupt)
			}
			from := len(out) - dist
			if dist >= length {
				// Source and destination cannot overlap: one bulk copy.
				out = append(out, out[from:from+length]...)
			} else {
				// Overlapping run (RLE-style): the byte loop is the
				// semantics — each copied byte may itself be a source.
				for k := 0; k < length; k++ {
					out = append(out, out[from+k])
				}
			}
		}
	}
	return out, nil
}
