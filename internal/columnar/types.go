// Package columnar implements the in-memory columnar storage manager of the
// paper's OLTP engine (§3.2): every table keeps two full columnar instances
// ("twin instances", after Twin Blocks / Twin Tuples), only one of which is
// active for transaction processing at any time. Updates land on the active
// instance and set a per-record update-indication bit; inserts are appended
// to both instances but become visible in the inactive one only after a
// switch. The Resource and Data Exchange engine switches the active
// instance to hand the OLAP engine a consistent snapshot without
// interfering with transaction execution.
//
// "Two full instances" is the logical picture. Physically the instances
// list the same 128 KiB chunk of a column until a transaction first updates
// a cell of it in place, and only that chunk is then held twice
// (Table.unshare): a column nothing updates — most of CH — costs one copy,
// and Table.TwinBytes says how much of the second twin is real. The OLAP
// replica is a third directory over the same chunks: it lists each chunk
// both twins still share when it first absorbs rows of it, and
// Replica.Bytes says how much of it is its own.
//
// What the OLAP replica is missing is two facts, each kept once: inserts
// are the rows at or above the replica's row watermark — an append touches
// no bitmap — and updates are the dirtyOLAP bits only UpdateCells sets
// (Table.dirtyOLAP says why FreshSince counts them below the watermark).
//
// Access discipline. A column is a Words: plain chunks behind an atomically
// published directory, so a cell access is a load and takes no lock. Who
// may do what is decided above it:
//
//   - Only appends grow a column: the table's one append loop,
//     AppendColumns (AppendRows is its row-major form), one at a time
//     under the table's appendMu, and the replica's CopyInserts. Rows are
//     written above the published row count, where nothing reads, and the
//     count is stored last. AppendColumns hands its caller each column's
//     chunk runs in turn, with each run's offset in the append, to fill in
//     place (a load copies, a restore decodes, a commit gathers its rows)
//     and publishes nothing if the caller fails.
//   - An existing cell is written only by UpdateCells (the holder of the
//     records' locks, inside BeginApply/EndApply, in the active instance),
//     by SyncTo (in the inactive instance, which no transaction touches),
//     and by the replica's CopyRow and CopyInserts. Each claims the chunk
//     first: where another directory lists it — the other twin or the
//     replica, or for the replica a twin — the writer's directory gets a
//     copy of its own (Table.claim, Replica.claim), so no store ever
//     lands in memory another directory lists. UpdateCells and SyncTo use
//     atomic stores and count in colUpdates.
//   - A row's timestamp word is written by the appender that publishes
//     the row and afterwards only by the holder of the row's record lock:
//     MarkApplying flags it before the commit timestamp is drawn, and
//     UpdateCells replaces the flagged word with that timestamp (or
//     ClearApplying unflags it for a commit that never applied). Between
//     the mark and the stamp, RowTS carries the Applying flag.
//   - Point reads (ReadCell, ReadRow) use atomic loads and are always safe;
//     what version they see is the transaction manager's business. Run
//     reads (Scan, Slice) are plain loads, for rows no writer touches: an
//     inactive instance below its snapshot row count, or a replica.
package columnar

import (
	"fmt"
	"math"
)

// Type enumerates the supported column types. All values are stored as raw
// 8-byte words; Float64 uses IEEE bits, String uses dictionary codes.
type Type int8

const (
	// Int64 stores signed integers (also dates as epoch days, IDs, counts).
	Int64 Type = iota
	// Float64 stores IEEE-754 doubles (amounts, prices).
	Float64
	// String stores dictionary-encoded variable-length text.
	String
)

// String names the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", int8(t))
	}
}

// WordBytes is the storage width of every column value.
const WordBytes = 8

// ColumnDef describes one column of a schema.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema describes a table: its name and ordered column definitions.
type Schema struct {
	Name    string
	Columns []ColumnDef
}

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustColumn returns the position of the named column or panics. Schemas
// are static program data, so a miss is a programming error.
func (s Schema) MustColumn(name string) int {
	i := s.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("columnar: schema %q has no column %q", s.Name, name))
	}
	return i
}

// RowBytes returns the storage width of one row.
func (s Schema) RowBytes() int64 { return int64(len(s.Columns)) * WordBytes }

// EncodeFloat packs a float64 into the raw word representation.
func EncodeFloat(f float64) int64 { return int64(math.Float64bits(f)) }

// DecodeFloat unpacks a raw word into a float64.
func DecodeFloat(w int64) float64 { return math.Float64frombits(uint64(w)) }
