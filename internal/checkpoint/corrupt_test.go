package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"elastichtap/internal/columnar"
)

// twoDictSchema interleaves two String columns with word columns, so a
// file has two dictionary sections and a column section follows a
// dictionary-coded one.
var twoDictSchema = columnar.Schema{Name: "twodict", Columns: []columnar.ColumnDef{
	{Name: "id", Type: columnar.Int64},
	{Name: "tag", Type: columnar.String},
	{Name: "amt", Type: columnar.Float64},
	{Name: "note", Type: columnar.String},
}}

// sectionEnds walks a v2 file of schema and rows rows and returns the
// offset just past each section — the header, every column, every
// dictionary, in file order — each ending in its 4-byte CRC trailer.
func sectionEnds(t *testing.T, raw []byte, schema columnar.Schema, rows int) []int {
	t.Helper()
	le := binary.LittleEndian
	off := len(magic) + 4 + 4 + len(schema.Name) + 4
	for _, c := range schema.Columns {
		off += 4 + len(c.Name) + 1
	}
	off += 8 + 4
	ends := []int{off}
	for range schema.Columns {
		off += 8*rows + 4
		ends = append(ends, off)
	}
	for _, c := range schema.Columns {
		if c.Type != columnar.String {
			continue
		}
		n := int(le.Uint32(raw[off:]))
		off += 4
		for i := 0; i < n; i++ {
			off += 4 + int(le.Uint32(raw[off:]))
		}
		off += 4
		ends = append(ends, off)
	}
	if off != len(raw) {
		t.Fatalf("sections end at %d of a %d-byte file", off, len(raw))
	}
	return ends
}

// TestCorruptionLeavesTableEmpty: a byte flipped in any section — in its
// payload, mid-run for a column, or in its checksum — and a file cut at
// any section boundary, just before any checksum or in the middle of a
// run, each fail the restore, and the table it was restoring into still
// has no rows: nothing is published before the last section verifies.
func TestCorruptionLeavesTableEmpty(t *testing.T) {
	const rows = 2*columnar.ChunkSize + 3
	src := columnar.NewTable(twoDictSchema, 0)
	batch := make([][]int64, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, src.EncodeRow(i, fmt.Sprintf("t%d", i%31), float64(i)/8, fmt.Sprintf("n%d", i%7)))
	}
	src.AppendRows(batch, 1)
	var buf bytes.Buffer
	if err := Write(&buf, src, src.Active(), src.Rows()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	ends := sectionEnds(t, raw, twoDictSchema, rows)
	if want := 1 + len(twoDictSchema.Columns) + 2; len(ends) != want {
		t.Fatalf("%d sections, want %d", len(ends), want)
	}

	cases := map[string][]byte{}
	flip := func(name string, at int) {
		mut := bytes.Clone(raw)
		mut[at] ^= 0x10
		cases[fmt.Sprintf("flip %s at %d", name, at)] = mut
	}
	cut := func(at int) { cases[fmt.Sprintf("cut at %d", at)] = raw[:at] }
	flip("magic", 1)
	flip("version", 5)
	cut(0)
	cut(len(magic))
	start := len(magic) + 4
	for k, end := range ends {
		name := fmt.Sprintf("section %d", k)
		flip(name, start+(end-4-start)/2)
		flip(name+" checksum", end-2)
		cut(end - 4)
		if k > 0 && k <= len(twoDictSchema.Columns) { // a column: cut and flip inside its runs
			flip(name+" run 2", start+8*(columnar.ChunkSize+5)+3)
			cut(start + 8*columnar.ChunkSize + 5)
			cut(start + 8*(2*columnar.ChunkSize) + 3)
		}
		if end < len(raw) {
			cut(end)
		}
		start = end
	}
	for name, mut := range cases {
		dst := columnar.NewTable(twoDictSchema, 0)
		if err := ReadInto(bytes.NewReader(mut), dst); err == nil {
			t.Errorf("%s: restored without error", name)
		}
		if dst.Rows() != 0 || dst.Active().Visible() != 0 {
			t.Errorf("%s: %d rows published, %d visible", name, dst.Rows(), dst.Active().Visible())
		}
	}

	dst := columnar.NewTable(twoDictSchema, 0)
	if err := ReadInto(bytes.NewReader(raw), dst); err != nil || dst.Rows() != rows {
		t.Fatalf("intact file: %d rows, err %v", dst.Rows(), err)
	}
}
