package columnar

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkAppendRows appends 8192 orderline-shaped rows (ten columns) to a
// fresh table, one row per call (a transaction's insert) and in one call (a
// load or a replayed batch), ns/row. The twins share the chunks, so each
// cell is stored once.
func BenchmarkAppendRows(b *testing.B) {
	const rows = 8192
	schema := intSchema("ol", "o", "d", "w", "n", "i", "sw", "dd", "q", "a", "di")
	batch := make([][]int64, rows)
	for i := range batch {
		batch[i] = make([]int64, len(schema.Columns))
		for c := range batch[i] {
			batch[i][c] = int64(i*len(schema.Columns) + c)
		}
	}
	for _, per := range []int{1, rows} {
		b.Run(fmt.Sprintf("rows=%d", per), func(b *testing.B) {
			var busy time.Duration
			for i := 0; i < b.N; i++ {
				tab := NewTable(schema, rows)
				t0 := time.Now()
				for lo := 0; lo < rows; lo += per {
					tab.AppendRows(batch[lo:lo+per], 1)
				}
				busy += time.Since(t0)
			}
			b.ReportMetric(float64(busy.Nanoseconds())/(float64(b.N)*rows), "ns/row")
		})
	}
}

// BenchmarkFirstUpdateUnshare is what a chunk's first in-place update pays
// on top of every later one: 64 chunks of one column, one UpdateCell each
// while the twins still share them (ns/unshare: the 128 KiB copy and a new
// directory), then one more each now that they are split (ns/update).
func BenchmarkFirstUpdateUnshare(b *testing.B) {
	const chunks = 64
	var first, later time.Duration
	for i := 0; i < b.N; i++ {
		tab := NewTable(intSchema("t", "v"), 0)
		appendSeq(tab, 0, chunks*ChunkSize, 1)
		for pass, d := range []*time.Duration{&first, &later} {
			t0 := time.Now()
			for c := int64(0); c < chunks; c++ {
				tab.UpdateCell(c*ChunkSize+int64(pass), 0, -1, 2)
			}
			*d += time.Since(t0)
		}
		if _, private := tab.TwinBytes(); private != 2*chunks*chunkBytes {
			b.Fatalf("%d private bytes after touching %d chunks", private, chunks)
		}
	}
	per := float64(b.N) * chunks
	b.ReportMetric(float64(first.Nanoseconds())/per, "ns/unshare")
	b.ReportMetric(float64(later.Nanoseconds())/per, "ns/update")
}
