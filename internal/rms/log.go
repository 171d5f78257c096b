package rms

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// The on-disk entry codec: WAL segments and WAL snapshots carry the
// same checksummed entry frame,
//
//	op   uint8   (1=add, 2=set, 3=delete)
//	id   uint32
//	size uint32  (payload length; 0 for delete)
//	crc  uint32  (IEEE CRC-32 over op|id|size|payload)
//	payload
//
// so one reader and one writer cover every log in the system.

const (
	opAdd    = 1
	opSet    = 2
	opDelete = 3

	entryHeaderSize = 1 + 4 + 4 + 4

	// MaxRecordSize bounds one record payload; larger Add/Set calls are
	// rejected so a corrupt length field cannot trigger a huge allocation.
	MaxRecordSize = 16 << 20
)

// appendLogEntry appends the encoded entry frame to dst and returns
// the extended slice.
func appendLogEntry(dst []byte, op byte, id int, payload []byte) []byte {
	var hdr [entryHeaderSize]byte
	hdr[0] = op
	binary.BigEndian.PutUint32(hdr[1:5], uint32(id))
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:9])
	crc.Write(payload)
	binary.BigEndian.PutUint32(hdr[9:13], crc.Sum32())
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readLogEntry reads one entry frame from r. ok is false at clean EOF,
// on a torn (truncated) entry, or on a corrupt one — replay must stop
// there and keep the prefix. n is the frame's total byte length.
func readLogEntry(r *bufio.Reader) (op byte, id int, payload []byte, n int, ok bool) {
	var hdr [entryHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, 0, false
	}
	op = hdr[0]
	id = int(binary.BigEndian.Uint32(hdr[1:5]))
	size := binary.BigEndian.Uint32(hdr[5:9])
	sum := binary.BigEndian.Uint32(hdr[9:13])
	if size > MaxRecordSize {
		return 0, 0, nil, 0, false // corrupt length field
	}
	payload = make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, 0, false // torn payload
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:9])
	crc.Write(payload)
	if crc.Sum32() != sum {
		return 0, 0, nil, 0, false // corrupt entry
	}
	if op != opAdd && op != opSet && op != opDelete {
		return 0, 0, nil, 0, false // unknown op
	}
	return op, id, payload, entryHeaderSize + int(size), true
}
