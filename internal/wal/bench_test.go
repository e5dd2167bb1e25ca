package wal

import (
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures the steady-state append path (encode +
// in-memory write, SyncNever so fsync cost doesn't drown the encoder).
// The hot path must stay allocation-free per record once the encode
// buffer has warmed — see alloc_regression_test.go at the repo root.
func BenchmarkWALAppend(b *testing.B) {
	for _, ops := range []int{1, 8} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			fs := NewMemFS()
			l, err := Open(fs, "bench/wal.log", SyncNever, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			rec := &Record{CommitTS: 2}
			for i := 0; i < ops; i++ {
				rec.Ops = append(rec.Ops, Op{
					Kind: OpUpdate, Table: 8, Row: int64(i), Col: 3, Val: int64(i),
				})
			}
			sz := int64(frameHeader + payloadSize(rec))
			b.SetBytes(sz)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(rec, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALReplay measures the recovery scan in rows per second over a
// log of insert-heavy records, the shape recovery actually replays.
func BenchmarkWALReplay(b *testing.B) {
	fs := NewMemFS()
	l, err := Open(fs, "bench/wal.log", SyncNever, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	const recs, rows, width = 2000, 4, 8
	ins := &Record{CommitTS: 2, Ops: []Op{{
		Kind: OpInsert, Table: 6, NRows: rows, Width: width,
		Vals: make([]int64, rows*width),
	}}}
	for i := 0; i < recs; i++ {
		if _, err := l.Append(ins, nil); err != nil {
			b.Fatal(err)
		}
	}
	logBytes := l.Pos()
	b.SetBytes(logBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fs.Open("bench/wal.log")
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		st, err := Replay(f, 0, func(_ int64, rec *Record) error {
			n += rec.Ops[0].NRows
			return nil
		})
		f.Close()
		if err != nil || st.Records != recs || n != recs*rows {
			b.Fatalf("replay: %v, %d records, %d rows", err, st.Records, n)
		}
	}
	b.ReportMetric(float64(recs*rows), "rows/replay")
}
