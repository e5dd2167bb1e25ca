package experiments

import (
	"time"

	"elastichtap/internal/columnar"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/topology"
)

// Table1Row is one line of Table 1: the HTAP design-space classification
// mapped to the system state that represents it.
type Table1Row struct {
	Storage   string
	System    string
	Mechanism string
	Tradeoff  string
	OurState  string
}

// Table1 returns the paper's design classification (Table 1) with the
// state of this system that represents each class (§3.4 "Related systems").
func Table1() []Table1Row {
	return []Table1Row{
		{"Unified", "HyPer-Fork, Caldera", "CoW", "OLTP (CoW page copies)", "S1 (CoW baseline in Fig. 1)"},
		{"Unified", "HyPer-MVOCC, MemSQL, IBM BLU", "MVCC", "OLAP (version traversal)", "S1"},
		{"Unified", "SAP HANA", "Delta-versioning", "OLAP (version traversal), OLTP (record chains)", "S1"},
		{"Decoupled", "BatchDB", "Batch-ETL", "OLAP (ETL latency)", "S2"},
		{"Decoupled", "Microsoft SQL Server", "MVCC-Delta", "OLAP (tail-records scan)", "S3-IS / S3-NI"},
		{"Decoupled", "Oracle Dual-format", "Txn Journal & ETL", "OLAP (tail-records scan)", "S3-IS / S3-NI"},
	}
}

// SyncClaimRow reports the §3.4 instance-synchronization claim.
type SyncClaimRow struct {
	ModifiedRows int64
	TotalRows    int64
	// ModelSeconds is the cost model's simulated sync duration at paper
	// scale ("around 10ms to sync around 1 million modified tuples in a
	// database of over 1.8 billion records").
	ModelSeconds float64
	// MeasuredSeconds is the wall-clock duration of actually draining the
	// update-indication bits and copying the rows on this machine.
	MeasuredSeconds float64
	// CopiedRows is the number of records the real sync propagated.
	CopiedRows int
}

// SyncClaim exercises the twin-instance synchronization path with a
// million modified tuples: the model reproduces the paper's ~10ms figure
// and the real copy is measured for reference.
func SyncClaim(modified, total int64) SyncClaimRow {
	if modified <= 0 {
		modified = 1_000_000
	}
	if total <= 0 {
		total = 1_800_000_000
	}
	model := costmodel.New(topology.DefaultConfig(), costmodel.DefaultParams())
	row := SyncClaimRow{
		ModifiedRows: modified,
		TotalRows:    total,
		ModelSeconds: model.SyncTime(modified, total),
	}

	// Real sync over an actually allocated table: size it to the modified
	// count (the bitmap scan over `total` rows is charged by the model).
	realRows := modified
	tab := columnar.NewTable(columnar.Schema{
		Name: "sync",
		Columns: []columnar.ColumnDef{
			{Name: "a", Type: columnar.Int64},
			{Name: "b", Type: columnar.Int64},
			{Name: "c", Type: columnar.Int64},
			{Name: "d", Type: columnar.Int64},
		},
	}, realRows)
	// fill never fails, so neither does AppendColumns.
	_, _ = tab.AppendColumns(realRows, 0, func(_ int, off int64, dst []int64) error {
		for i := range dst {
			dst[i] = off + int64(i)
		}
		return nil
	})
	for r := int64(0); r < realRows; r++ {
		tab.UpdateCell(r, 1, r*2, 2)
	}
	start := time.Now()
	row.CopiedRows = tab.SyncTo(tab.ActiveIndex(), func(int64) func() { return func() {} })
	row.MeasuredSeconds = time.Since(start).Seconds()
	return row
}
