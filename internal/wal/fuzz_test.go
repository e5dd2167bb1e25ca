package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes through both the payload decoder
// and the full replay scan. Neither may panic, over-read, or allocate
// proportionally to a claimed (rather than actual) length, no matter how
// the input is truncated, bit-flipped or fabricated.
func FuzzWALDecode(f *testing.F) {
	// Seed with well-formed frames so mutation explores near-valid inputs.
	seed := func(rec *Record) []byte {
		buf := make([]byte, frameHeader+payloadSize(rec))
		encodeFrame(buf, rec)
		return buf
	}
	f.Add(seed(&Record{CommitTS: 2, Ops: []Op{
		{Kind: OpUpdate, Table: 8, Row: 9, Col: 3, Val: -4},
	}}))
	f.Add(seed(&Record{CommitTS: 8, Ops: []Op{
		{Kind: OpInsert, Table: 5, NRows: 2, Width: 3, Vals: []int64{1, 2, 3, 4, 5, 6}},
		{Kind: OpUpdate, Table: 1, Row: 0, Col: 0, Val: 0},
	}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	// A frame whose CRC is valid but whose payload claims a giant insert.
	hostile := make([]byte, frameHeader+headerBytes+opBytes+8)
	le := binary.LittleEndian
	le.PutUint32(hostile[frameHeader+8:], 1) // one op
	hostile[frameHeader+headerBytes] = byte(OpInsert)
	le.PutUint32(hostile[frameHeader+headerBytes+opBytes:], 1<<31-1) // absurd NRows
	le.PutUint32(hostile[0:], uint32(len(hostile)-frameHeader))
	le.PutUint32(hostile[4:], crc32.Checksum(hostile[frameHeader:], Castagnoli))
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw payload decoding.
		if rec, err := DecodeRecord(data); err == nil {
			// A successful decode must re-encode to the identical payload.
			buf := make([]byte, frameHeader+payloadSize(rec))
			n := encodeFrame(buf, rec)
			if !bytes.Equal(buf[frameHeader:n], data) {
				t.Fatalf("decode/encode mismatch: %x -> %x", data, buf[frameHeader:n])
			}
		}
		// Full replay scan: must terminate without error or panic, and
		// ValidPos can never exceed the input length.
		st, err := Replay(bytes.NewReader(data), 0, func(pos int64, rec *Record) error {
			if rec == nil || pos < 0 {
				t.Fatal("replay surfaced a nil record or negative position")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("replay over fuzz input returned error: %v", err)
		}
		if st.ValidPos > int64(len(data)) {
			t.Fatalf("ValidPos %d beyond input length %d", st.ValidPos, len(data))
		}
	})
}
