package rms

import (
	"encoding/binary"
	"hash/crc32"
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

// readLogEntry decodes the entry frame at the start of data. ok is
// false at the end of data, on a torn (truncated) entry, or on a
// corrupt one — replay must stop there and keep the prefix. The payload
// is a copy, allocated only once the bytes it declares are known to be
// there. n is the frame's total byte length.
func readLogEntry(data []byte) (op byte, id int, payload []byte, n int, ok bool) {
	if len(data) < entryHeaderSize {
		return 0, 0, nil, 0, false
	}
	op = data[0]
	id = int(binary.BigEndian.Uint32(data[1:5]))
	size := binary.BigEndian.Uint32(data[5:9])
	sum := binary.BigEndian.Uint32(data[9:13])
	if size > MaxRecordSize || int(size) > len(data)-entryHeaderSize {
		return 0, 0, nil, 0, false // corrupt length field or torn payload
	}
	n = entryHeaderSize + int(size)
	crc := crc32.NewIEEE()
	crc.Write(data[:9])
	crc.Write(data[entryHeaderSize:n])
	if crc.Sum32() != sum {
		return 0, 0, nil, 0, false // corrupt entry
	}
	if op != opAdd && op != opSet && op != opDelete {
		return 0, 0, nil, 0, false // unknown op
	}
	return op, id, append(make([]byte, 0, size), data[entryHeaderSize:n]...), n, true
}
