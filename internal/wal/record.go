package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"sync"
	"sync/atomic"
)

// Records frame as
//
//	u32 payload length | u32 CRC32C(payload) | payload
//
// with a little-endian payload of
//
//	u64 txn id | u64 commit timestamp | u32 op count
//	per op: u8 kind | u16 table name length | table name
//	        update: u64 row | u32 col | u64 value
//	        insert: u32 row count | u32 width | rows*width u64 words
//
// CRC32C is the Castagnoli polynomial (hardware-accelerated on amd64 and
// arm64), the same checksum the checkpoint format uses.

// OpKind distinguishes write-set operations.
type OpKind uint8

const (
	// OpUpdate is one in-place cell write of a committed row.
	OpUpdate OpKind = 1
	// OpInsert appends whole rows; replay reassigns the same row IDs
	// because append order equals log order (see Log.Append).
	OpInsert OpKind = 2
)

// Op is one operation of a committed write set.
type Op struct {
	Kind  OpKind
	Table string

	// Update fields.
	Row int64
	Col uint32
	Val int64

	// Insert fields: NRows rows of Width raw words each, row-major.
	NRows int
	Width int
	Vals  []int64
}

// Record is one committed transaction's write set.
type Record struct {
	TxnID    uint64
	CommitTS uint64
	Ops      []Op
}

const (
	frameHeader = 8         // u32 len + u32 crc
	headerBytes = 8 + 8 + 4 // txn id + commit ts + op count
	// maxPayload caps a claimed record length so a corrupt or hostile
	// header can never trigger a huge allocation or over-read.
	maxPayload = 1 << 26
	// maxTableName bounds decoded table names.
	maxTableName = 1 << 12
)

// Castagnoli is the CRC32C table shared by WAL and checkpoint framing.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record that failed framing, checksum or payload
// validation. Replay treats it as the end of the usable log.
var ErrCorrupt = errors.New("wal: corrupt record")

// payloadSize returns the encoded payload byte count of rec.
//
//htap:hotpath
func payloadSize(rec *Record) int {
	n := headerBytes
	for i := range rec.Ops {
		op := &rec.Ops[i]
		n += 1 + 2 + len(op.Table)
		if op.Kind == OpUpdate {
			n += 8 + 4 + 8
		} else {
			n += 4 + 4 + 8*len(op.Vals)
		}
	}
	return n
}

// encodeFrame writes the framed record into buf, which must hold exactly
// frameHeader+payloadSize(rec) bytes, and returns the bytes written.
//
//htap:hotpath
func encodeFrame(buf []byte, rec *Record) int {
	le := binary.LittleEndian
	p := frameHeader
	le.PutUint64(buf[p:], rec.TxnID)
	le.PutUint64(buf[p+8:], rec.CommitTS)
	le.PutUint32(buf[p+16:], uint32(len(rec.Ops)))
	p += headerBytes
	for i := range rec.Ops {
		op := &rec.Ops[i]
		buf[p] = byte(op.Kind)
		le.PutUint16(buf[p+1:], uint16(len(op.Table)))
		p += 3
		copy(buf[p:], op.Table)
		p += len(op.Table)
		if op.Kind == OpUpdate {
			le.PutUint64(buf[p:], uint64(op.Row))
			le.PutUint32(buf[p+8:], op.Col)
			le.PutUint64(buf[p+12:], uint64(op.Val))
			p += 20
		} else {
			le.PutUint32(buf[p:], uint32(op.NRows))
			le.PutUint32(buf[p+4:], uint32(op.Width))
			p += 8
			for _, v := range op.Vals {
				le.PutUint64(buf[p:], uint64(v))
				p += 8
			}
		}
	}
	le.PutUint32(buf[0:], uint32(p-frameHeader))
	le.PutUint32(buf[4:], crc32.Checksum(buf[frameHeader:p], Castagnoli))
	return p
}

// DecodeRecord parses one record payload (the bytes after the 8-byte
// frame header, already CRC-verified by the caller or not). It is
// defensive against truncated, bit-flipped and hostile inputs: every
// claimed count is validated against the remaining bytes before any
// allocation, so malformed payloads return ErrCorrupt instead of
// panicking or over-allocating.
//
// A record takes three allocations at most: the record, its ops and one
// block holding every insert's values. Table names are interned (see
// internName), and the values are copied out in a second pass once the
// first has sized the block.
func DecodeRecord(payload []byte) (*Record, error) {
	le := binary.LittleEndian
	if len(payload) < headerBytes || len(payload) > maxPayload {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrCorrupt, len(payload))
	}
	rec := &Record{
		TxnID:    le.Uint64(payload),
		CommitTS: le.Uint64(payload[8:]),
	}
	nops := int(le.Uint32(payload[16:]))
	p := headerBytes
	// Each op takes at least 3 bytes; reject counts the payload can't hold.
	if nops < 0 || nops > (len(payload)-p)/3 {
		return nil, fmt.Errorf("%w: %d ops in %d bytes", ErrCorrupt, nops, len(payload))
	}
	rec.Ops = make([]Op, nops)
	words := 0
	for i := range rec.Ops {
		if len(payload)-p < 3 {
			return nil, fmt.Errorf("%w: truncated op header", ErrCorrupt)
		}
		kind := OpKind(payload[p])
		nameLen := int(le.Uint16(payload[p+1:]))
		p += 3
		if nameLen > maxTableName || len(payload)-p < nameLen {
			return nil, fmt.Errorf("%w: table name %d bytes", ErrCorrupt, nameLen)
		}
		op := &rec.Ops[i]
		op.Kind, op.Table = kind, internName(payload[p:p+nameLen])
		p += nameLen
		switch kind {
		case OpUpdate:
			if len(payload)-p < 20 {
				return nil, fmt.Errorf("%w: truncated update", ErrCorrupt)
			}
			op.Row = int64(le.Uint64(payload[p:]))
			op.Col = le.Uint32(payload[p+8:])
			op.Val = int64(le.Uint64(payload[p+12:]))
			p += 20
		case OpInsert:
			if len(payload)-p < 8 {
				return nil, fmt.Errorf("%w: truncated insert header", ErrCorrupt)
			}
			op.NRows = int(le.Uint32(payload[p:]))
			op.Width = int(le.Uint32(payload[p+4:]))
			p += 8
			if op.NRows < 0 || op.Width <= 0 {
				return nil, fmt.Errorf("%w: insert shape %dx%d", ErrCorrupt, op.NRows, op.Width)
			}
			n := op.NRows * op.Width
			if op.NRows > maxPayload/8 || op.Width > maxPayload/8 ||
				n > (len(payload)-p)/8 {
				return nil, fmt.Errorf("%w: insert %dx%d exceeds payload", ErrCorrupt, op.NRows, op.Width)
			}
			p += 8 * n
			words += n
		default:
			return nil, fmt.Errorf("%w: op kind %d", ErrCorrupt, kind)
		}
	}
	if p != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(payload)-p)
	}
	if words > 0 {
		decodeValues(payload, rec.Ops, make([]int64, words))
	}
	return rec, nil
}

// decodeValues is DecodeRecord's second pass over a payload it has
// validated: it walks the ops again and decodes each insert's words into
// its own capped slice of vals.
func decodeValues(payload []byte, ops []Op, vals []int64) {
	p := headerBytes
	for i := range ops {
		op := &ops[i]
		p += 3 + len(op.Table)
		if op.Kind == OpUpdate {
			p += 20
			continue
		}
		p += 8
		n := op.NRows * op.Width
		op.Vals, vals = vals[:n:n], vals[n:]
		for k := range op.Vals {
			op.Vals[k] = int64(binary.LittleEndian.Uint64(payload[p:]))
			p += 8
		}
	}
}

// maxInterned bounds the interned table names. A log names a schema's
// tables; only a damaged one names more, and those names are allocated per
// op instead.
const maxInterned = 256

// tableNames interns decoded table names for every decode in the process,
// as a map published copy-on-write: a lookup is a load and takes no lock.
var tableNames struct {
	mu sync.Mutex
	m  atomic.Pointer[map[string]string]
}

// internName returns the table name spelled by b without allocating once
// the name has been seen.
func internName(b []byte) string {
	if m := tableNames.m.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	return addName(b)
}

// addName interns a name not seen yet, if there is room.
func addName(b []byte) string {
	tableNames.mu.Lock()
	defer tableNames.mu.Unlock()
	var m map[string]string
	if old := tableNames.m.Load(); old != nil {
		if s, ok := (*old)[string(b)]; ok {
			return s
		}
		if len(*old) >= maxInterned {
			return string(b)
		}
		m = maps.Clone(*old)
	} else {
		m = map[string]string{}
	}
	s := string(b)
	m[s] = s
	tableNames.m.Store(&m)
	return s
}
