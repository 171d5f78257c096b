package compress

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// The DEFLATE (RFC 1951) encoder behind the Flate and FlateDict codecs.
// A mailbox answer is a few hundred bytes to a few KiB of markup, so the
// encoder is built for that: its match finder is primed with the preset
// dictionary once per process and each answer copies the primed tables
// (16 KiB plus 4 B per dictionary byte) instead of clearing a large
// hash table and re-hashing the dictionary. Devices decode with any
// inflater; the stream is plain RFC 1951.
const (
	dfHashBits = 12
	dfHashSize = 1 << dfHashBits
	dfMinMatch = 4
	dfMaxMatch = 258
	dfWindow   = 1 << 15
	// dfMaxChain bounds the candidates tried per position; the search
	// also stops at a dfMaxMatch match.
	dfMaxChain = 8
	// dfHashInner: the positions inside a match are hashed only when the
	// match is this long or shorter. Long matches are runs of markup the
	// next answer finds again from their first position.
	dfHashInner = 16
	// dfMaxBlock is the input one block covers: the most a stored block
	// can hold, so an incompressible block costs 5 bytes of framing.
	dfMaxBlock = 65535

	dfLitCodes  = 286
	dfDistCodes = 30
	dfEOB       = 256
)

var (
	lengthBase  = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [dfDistCodes]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = [dfDistCodes]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// clOrder is the order code-length code lengths are sent in, and
	// clExtra the extra bits of the three repeat codes.
	clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	clExtra = [19]uint8{16: 2, 17: 3, 18: 7}

	// lengthCode maps a match length minus 3 to its length code minus 257.
	lengthCode [dfMaxMatch - 2]uint8

	// The fixed Huffman code of RFC 1951 §3.2.6, whose literal/length
	// code also spans the two symbols no stream uses.
	fixedLitLen   [288]uint8
	fixedLitCode  [288]uint16
	fixedDistLen  [dfDistCodes]uint8
	fixedDistCode [dfDistCodes]uint16
)

func init() {
	for c := range lengthBase {
		for l := int(lengthBase[c]); l < int(lengthBase[c])+1<<lengthExtra[c] && l <= dfMaxMatch; l++ {
			lengthCode[l-3] = uint8(c) // 258 is code 28, not 27's last slot: it comes later
		}
	}
	for s := range fixedLitLen {
		switch {
		case s < 144:
			fixedLitLen[s] = 8
		case s < 256:
			fixedLitLen[s] = 9
		case s < 280:
			fixedLitLen[s] = 7
		default:
			fixedLitLen[s] = 8
		}
	}
	for d := range fixedDistLen {
		fixedDistLen[d] = 5
	}
	canonicalCodes(fixedLitCode[:], fixedLitLen[:])
	canonicalCodes(fixedDistCode[:], fixedDistLen[:])
}

// distCode maps a match distance minus 1 to its distance code.
func distCode(d uint32) uint32 {
	if d < 4 {
		return d
	}
	nb := uint32(bits.Len32(d)) - 1
	return 2*nb + (d>>(nb-1))&1
}

func hash4(b []byte) uint32 {
	return (binary.LittleEndian.Uint32(b) * 0x1e35a7bd) >> (32 - dfHashBits)
}

// primer is a match finder's start state: the hash heads and chain
// links of a preset dictionary (none for Flate), computed once.
type primer struct {
	dict []byte
	head [dfHashSize]int32
	prev []int32
}

func newPrimer(dict []byte) *primer {
	p := &primer{dict: dict, prev: make([]int32, len(dict))}
	for i := range p.head {
		p.head[i] = -1
	}
	for i := 0; i+dfMinMatch <= len(dict); i++ {
		h := hash4(dict[i:])
		p.prev[i] = p.head[h]
		p.head[h] = int32(i)
	}
	return p
}

var (
	flatePrimer     = newPrimer(nil)
	flateDictPrimer = newPrimer(flateDict)
)

// deflateState is one encode's working set. prev needs no clearing: a
// link is read only at a position that was hashed earlier in the same
// encode (or in the dictionary, whose links are copied in).
type deflateState struct {
	head   [dfHashSize]int32
	prev   []int32
	win    []byte // dictionary, then input
	tokens []uint32

	litFreq   [dfLitCodes]uint32
	distFreq  [dfDistCodes]uint32
	extraBits int

	litLens   [dfLitCodes]uint8
	litCodes  [dfLitCodes]uint16
	distLens  [dfDistCodes]uint8
	distCodes [dfDistCodes]uint16

	// The code-length code: run-length tokens (symbol | extra<<5) over
	// the literal/length and distance code lengths, and its own code.
	clTokens []uint16
	clFreq   [19]uint32
	clLens   [19]uint8
	clCodes  [19]uint16

	huff huffScratch
}

var deflatePool = sync.Pool{New: func() any { return new(deflateState) }}

// A token is a literal byte, or a match: tokMatch | (length-3)<<16 | (distance-1).
const tokMatch = 1 << 31

// deflate appends data's DEFLATE stream, primed with p's dictionary, to
// dst and returns the extended slice.
func (p *primer) deflate(dst, data []byte) []byte {
	st := deflatePool.Get().(*deflateState)
	defer deflatePool.Put(st)
	st.head = p.head
	st.win = append(append(st.win[:0], p.dict...), data...)
	st.prev = slices.Grow(st.prev[:0], len(st.win))[:len(st.win)]
	copy(st.prev, p.prev)

	w := bitWriter{out: dst}
	for start := len(p.dict); ; {
		end := min(start+dfMaxBlock, len(st.win))
		st.tokenize(start, end)
		st.writeBlock(&w, start, end, end == len(st.win))
		if end == len(st.win) {
			break
		}
		start = end
	}
	w.align()
	return w.out
}

// tokenize turns win[start:end] into tokens by greedy matching and
// counts the symbols they need.
func (st *deflateState) tokenize(start, end int) {
	win, head, prev := st.win, &st.head, st.prev
	st.tokens = st.tokens[:0]
	st.litFreq = [dfLitCodes]uint32{}
	st.distFreq = [dfDistCodes]uint32{}
	st.extraBits = 0
	for i := start; i < end; {
		if i+dfMinMatch <= len(win) {
			h := hash4(win[i:])
			cand := head[h]
			prev[i], head[h] = cand, int32(i)
			maxLen := min(dfMaxMatch, end-i)
			bestLen, bestDist := 0, 0
			for n := 0; cand >= 0 && i-int(cand) <= dfWindow && n < dfMaxChain; n++ {
				c := int(cand)
				if win[c+bestLen] == win[i+bestLen] {
					if l := matchLen(win[c:], win[i:i+maxLen]); l > bestLen {
						bestLen, bestDist = l, i-c
						if l == maxLen {
							break
						}
					}
				}
				cand = prev[c]
			}
			if bestLen >= dfMinMatch {
				st.tokens = append(st.tokens, tokMatch|uint32(bestLen-3)<<16|uint32(bestDist-1))
				lc := lengthCode[bestLen-3]
				dc := distCode(uint32(bestDist - 1))
				st.litFreq[257+int(lc)]++
				st.distFreq[dc]++
				st.extraBits += int(lengthExtra[lc]) + int(distExtra[dc])
				if bestLen <= dfHashInner {
					for j := i + 1; j < i+bestLen && j+dfMinMatch <= len(win); j++ {
						h := hash4(win[j:])
						prev[j], head[h] = head[h], int32(j)
					}
				}
				i += bestLen
				continue
			}
		}
		st.tokens = append(st.tokens, uint32(win[i]))
		st.litFreq[win[i]]++
		i++
	}
	st.litFreq[dfEOB]++
}

// matchLen is the length of the common prefix of a and b; a is at least
// as long as b.
func matchLen(a, b []byte) int {
	n := 0
	for len(b)-n >= 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// writeBlock writes the tokens of win[start:end] as whichever block is
// smallest: stored, fixed Huffman or dynamic Huffman.
func (st *deflateState) writeBlock(w *bitWriter, start, end int, final bool) {
	var bfinal uint64
	if final {
		bfinal = 1
	}
	fixed := 3 + st.extraBits
	for s, f := range st.litFreq {
		fixed += int(f) * int(fixedLitLen[s])
	}
	for _, f := range st.distFreq {
		fixed += int(f) * 5
	}
	pad := (8 - (int(w.n)+3)%8) % 8
	stored := 3 + pad + 32 + 8*(end-start)

	nlit, ndist, nclen, header := st.dynamicCode()
	dynamic := 3 + header + st.extraBits
	for s, f := range st.litFreq {
		dynamic += int(f) * int(st.litLens[s])
	}
	for d, f := range st.distFreq {
		dynamic += int(f) * int(st.distLens[d])
	}

	switch {
	case stored <= fixed && stored <= dynamic:
		w.write(bfinal, 3)
		w.align()
		n := uint16(end - start)
		w.out = binary.LittleEndian.AppendUint16(w.out, n)
		w.out = binary.LittleEndian.AppendUint16(w.out, ^n)
		w.out = append(w.out, st.win[start:end]...)
	case fixed <= dynamic:
		w.write(bfinal|1<<1, 3)
		st.writeTokens(w, fixedLitLen[:], fixedLitCode[:], fixedDistLen[:], fixedDistCode[:])
	default:
		w.write(bfinal|2<<1, 3)
		w.write(uint64(nlit-257), 5)
		w.write(uint64(ndist-1), 5)
		w.write(uint64(nclen-4), 4)
		for _, s := range clOrder[:nclen] {
			w.write(uint64(st.clLens[s]), 3)
		}
		for _, t := range st.clTokens {
			s := t & 31
			w.write(uint64(st.clCodes[s])|uint64(t>>5)<<st.clLens[s], uint(st.clLens[s])+uint(clExtra[s]))
		}
		st.writeTokens(w, st.litLens[:], st.litCodes[:], st.distLens[:], st.distCodes[:])
	}
}

// writeTokens writes the block's tokens and its end-of-block code.
func (st *deflateState) writeTokens(w *bitWriter, litLens []uint8, litCodes []uint16, distLens []uint8, distCodes []uint16) {
	for _, t := range st.tokens {
		if t&tokMatch == 0 {
			w.write(uint64(litCodes[t]), uint(litLens[t]))
			continue
		}
		l := (t >> 16) & 0xff
		lc := lengthCode[l]
		s := 257 + int(lc)
		w.write(uint64(litCodes[s])|uint64(l+3-uint32(lengthBase[lc]))<<litLens[s], uint(litLens[s])+uint(lengthExtra[lc]))
		d := t & 0xffff
		dc := distCode(d)
		w.write(uint64(distCodes[dc])|uint64(d+1-uint32(distBase[dc]))<<distLens[dc], uint(distLens[dc])+uint(distExtra[dc]))
	}
	w.write(uint64(litCodes[dfEOB]), uint(litLens[dfEOB]))
}

// dynamicCode builds the block's dynamic Huffman code and its header,
// and returns the header's counts and its size in bits.
func (st *deflateState) dynamicCode() (nlit, ndist, nclen, headerBits int) {
	st.huff.lengths(st.litFreq[:], st.litLens[:], 15)
	st.huff.lengths(st.distFreq[:], st.distLens[:], 15)
	canonicalCodes(st.litCodes[:], st.litLens[:])
	canonicalCodes(st.distCodes[:], st.distLens[:])
	nlit = dfLitCodes
	for nlit > 257 && st.litLens[nlit-1] == 0 {
		nlit--
	}
	ndist = dfDistCodes
	for ndist > 1 && st.distLens[ndist-1] == 0 {
		ndist--
	}

	// Run-length code the two length lists as one sequence.
	st.clTokens = st.clTokens[:0]
	st.clFreq = [19]uint32{}
	emit := func(sym, extra int) {
		st.clTokens = append(st.clTokens, uint16(sym|extra<<5))
		st.clFreq[sym]++
	}
	length := func(i int) uint8 {
		if i < nlit {
			return st.litLens[i]
		}
		return st.distLens[i-nlit]
	}
	for i, n := 0, nlit+ndist; i < n; {
		l := length(i)
		run := 1
		for i+run < n && length(i+run) == l {
			run++
		}
		i += run
		if l == 0 {
			for run >= 11 {
				r := min(run, 138)
				emit(18, r-11)
				run -= r
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(int(l), 0)
			run--
			for run >= 3 {
				r := min(run, 6)
				emit(16, r-3)
				run -= r
			}
		}
		for ; run > 0; run-- {
			emit(int(l), 0)
		}
	}
	st.huff.lengths(st.clFreq[:], st.clLens[:], 7)
	canonicalCodes(st.clCodes[:], st.clLens[:])
	nclen = len(clOrder)
	for nclen > 4 && st.clLens[clOrder[nclen-1]] == 0 {
		nclen--
	}

	headerBits = 5 + 5 + 4 + 3*nclen
	for s, f := range st.clFreq {
		headerBits += int(f) * int(st.clLens[s]+clExtra[s])
	}
	return nlit, ndist, nclen, headerBits
}

// huffScratch is the working set of a length-limited Huffman code.
type huffScratch struct {
	keys    [dfLitCodes]uint32 // freq<<9 | symbol, sorted
	weights [dfLitCodes]int32
}

// lengths sets lengths[s] to the code length of symbol s under a
// Huffman code for freq no longer than maxBits, and 0 for an unused
// symbol. At least two symbols get a code, so the code is complete even
// when a block uses one distance or none.
func (h *huffScratch) lengths(freq []uint32, lengths []uint8, maxBits int) {
	keys := h.keys[:0]
	for s, f := range freq {
		lengths[s] = 0
		if f > 0 {
			keys = append(keys, f<<9|uint32(s))
		}
	}
	for s := 0; len(keys) < 2; s++ {
		if freq[s] == 0 {
			keys = append(keys, uint32(s))
		}
	}
	slices.Sort(keys)
	n := len(keys)
	w := h.weights[:n]
	for i, k := range keys {
		w[i] = int32(k >> 9)
	}
	minimumRedundancy(w)

	// Limit the lengths to maxBits and rebalance the count per length
	// until the code is complete again (miniz's method), then give the
	// shortest lengths to the most frequent symbols.
	var count [16]int
	for _, l := range w {
		count[min(int(l), maxBits)]++
	}
	total := 0
	for l := 1; l <= maxBits; l++ {
		total += count[l] << (maxBits - l)
	}
	for ; total > 1<<maxBits; total-- {
		count[maxBits]--
		for l := maxBits - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	i := 0
	for l := maxBits; l > 0; l-- {
		for ; count[l] > 0; count[l]-- {
			lengths[keys[i]&511] = uint8(l)
			i++
		}
	}
}

// minimumRedundancy replaces the weights w, sorted ascending, by the
// lengths of an optimal prefix code for them (Moffat and Katajainen's
// in-place algorithm). len(w) must be at least 2.
func minimumRedundancy(w []int32) {
	n := int32(len(w))
	// Phase 1: left to right, internal node weights and parent pointers.
	w[0] += w[1]
	root, leaf := int32(0), int32(2)
	for next := int32(1); next < n-1; next++ {
		if leaf >= n || w[root] < w[leaf] {
			w[next] = w[root]
			w[root] = next
			root++
		} else {
			w[next] = w[leaf]
			leaf++
		}
		if leaf >= n || (root < next && w[root] < w[leaf]) {
			w[next] += w[root]
			w[root] = next
			root++
		} else {
			w[next] += w[leaf]
			leaf++
		}
	}
	// Phase 2: right to left, internal node depths.
	w[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		w[next] = w[w[next]] + 1
	}
	// Phase 3: right to left, leaf depths.
	avail, used, depth := int32(1), int32(0), int32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && w[root] == depth {
			used++
			root--
		}
		for avail > used {
			w[next] = depth
			next--
			avail--
		}
		avail, depth, used = 2*used, depth+1, 0
	}
}

// canonicalCodes assigns the canonical codes of RFC 1951 §3.2.2 to
// lengths, bit-reversed for the LSB-first bit writer.
func canonicalCodes(codes []uint16, lengths []uint8) {
	var count, next [16]uint16
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for l := 1; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lengths {
		if l != 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// bitWriter appends an LSB-first bit stream to out.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

// write appends the nb low bits of v; nb is at most 32.
func (w *bitWriter) write(v uint64, nb uint) {
	w.acc |= v << w.n
	w.n += nb
	if w.n >= 32 {
		w.out = binary.LittleEndian.AppendUint32(w.out, uint32(w.acc))
		w.acc >>= 32
		w.n -= 32
	}
}

// align pads the stream with zero bits to a byte boundary and flushes it.
func (w *bitWriter) align() {
	for w.n > 0 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
		w.n -= min(w.n, 8)
	}
}
