// Package checkpoint serializes consistent table snapshots and, with the
// manifest, whole-database checkpoints. The twin-instance design descends
// from checkpointing schemes (Twin Blocks, Cao et al., cited in §3.2):
// after an instance switch, the inactive instance is a quiescent,
// consistent snapshot that can be written out while transactions continue
// on the active instance — checkpointing without a stop-the-world pause.
//
// Table format v2 (little-endian; the only version read or written):
//
//	magic "EHCP" | version u32
//	header section: name, column count, per column (name, type), rows u64
//	  | u32 CRC32C of the section
//	per column: rows raw words | u32 CRC32C of the column bytes
//	per String column: dictionary (count, strings) | u32 CRC32C
//
// Every section checksum is CRC32C (Castagnoli), shared with the WAL
// framing, so a bit flip anywhere in a checkpoint file is detected at
// restore instead of silently corrupting the database.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"elastichtap/internal/columnar"
	"elastichtap/internal/wal"
)

const (
	magic   = "EHCP"
	version = 2
)

// ErrCorrupt reports a checkpoint section whose checksum did not match.
var ErrCorrupt = fmt.Errorf("checkpoint: corrupt section")

// crcWriter accumulates a CRC32C over everything written since the last
// endSection, so each format section carries its own checksum.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	buf [8]byte
}

func (cw *crcWriter) write(p []byte) error {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, wal.Castagnoli, p[:n])
	return err
}

func (cw *crcWriter) writeU32(v uint32) error {
	binary.LittleEndian.PutUint32(cw.buf[:4], v)
	return cw.write(cw.buf[:4])
}

func (cw *crcWriter) writeU64(v uint64) error {
	binary.LittleEndian.PutUint64(cw.buf[:8], v)
	return cw.write(cw.buf[:8])
}

func (cw *crcWriter) writeStr(s string) error {
	if err := cw.writeU32(uint32(len(s))); err != nil {
		return err
	}
	return cw.write([]byte(s))
}

// endSection emits the accumulated checksum (not itself checksummed) and
// starts the next section.
func (cw *crcWriter) endSection() error {
	binary.LittleEndian.PutUint32(cw.buf[:4], cw.crc)
	_, err := cw.w.Write(cw.buf[:4])
	cw.crc = 0
	return err
}

// crcReader mirrors crcWriter: it accumulates a CRC32C over reads and
// verifies each section trailer.
type crcReader struct {
	r   *bufio.Reader
	crc uint32
	buf [8]byte
}

func (cr *crcReader) read(p []byte) error {
	if _, err := io.ReadFull(cr.r, p); err != nil {
		return err
	}
	cr.crc = crc32.Update(cr.crc, wal.Castagnoli, p)
	return nil
}

func (cr *crcReader) readU32() (uint32, error) {
	if err := cr.read(cr.buf[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(cr.buf[:4]), nil
}

func (cr *crcReader) readU64() (uint64, error) {
	if err := cr.read(cr.buf[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(cr.buf[:8]), nil
}

func (cr *crcReader) readStr() (string, error) {
	n, err := cr.readU32()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("checkpoint: implausible string length %d", n)
	}
	b := make([]byte, n)
	if err := cr.read(b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (cr *crcReader) endSection(what string) error {
	got := cr.crc
	cr.crc = 0
	if _, err := io.ReadFull(cr.r, cr.buf[:4]); err != nil {
		return fmt.Errorf("checkpoint: %s checksum: %w", what, err)
	}
	want := binary.LittleEndian.Uint32(cr.buf[:4])
	if got != want {
		return fmt.Errorf("%w: %s checksum %08x, want %08x", ErrCorrupt, what, got, want)
	}
	return nil
}

// Write serializes rows [0, rows) of the snapshot instance of a table.
// The instance must be quiescent below the watermark (an inactive
// instance after Switch, or any instance with no concurrent writers).
func Write(w io.Writer, t *columnar.Table, inst *columnar.Instance, rows int64) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var vbuf [4]byte
	binary.LittleEndian.PutUint32(vbuf[:], version)
	if _, err := bw.Write(vbuf[:]); err != nil {
		return err
	}
	cw := &crcWriter{w: bw}
	schema := t.Schema()
	if err := cw.writeStr(schema.Name); err != nil {
		return err
	}
	if err := cw.writeU32(uint32(len(schema.Columns))); err != nil {
		return err
	}
	for _, c := range schema.Columns {
		if err := cw.writeStr(c.Name); err != nil {
			return err
		}
		if err := cw.write([]byte{byte(c.Type)}); err != nil {
			return err
		}
	}
	if err := cw.writeU64(uint64(rows)); err != nil {
		return err
	}
	if err := cw.endSection(); err != nil {
		return err
	}
	for c := range schema.Columns {
		var werr error
		inst.Col(c).Scan(0, rows, func(vals []int64, _ int64) {
			if werr != nil {
				return
			}
			for _, v := range vals {
				if err := cw.writeU64(uint64(v)); err != nil {
					werr = err
					return
				}
			}
		})
		if werr != nil {
			return werr
		}
		if err := cw.endSection(); err != nil {
			return err
		}
	}
	for c, def := range schema.Columns {
		if def.Type != columnar.String {
			continue
		}
		d := t.Dict(c)
		n := d.Len()
		if err := cw.writeU32(uint32(n)); err != nil {
			return err
		}
		for code := 0; code < n; code++ {
			if err := cw.writeStr(d.Str(int64(code))); err != nil {
				return err
			}
		}
		if err := cw.endSection(); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// image is a decoded checkpoint file before any table is touched.
type image struct {
	schema columnar.Schema
	rows   uint64
	cols   [][]int64
	dicts  map[int][]string // column -> dictionary strings in code order
}

func decode(r io.Reader) (*image, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", head)
	}
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, err
	}
	ver := binary.LittleEndian.Uint32(head)
	if ver != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", ver)
	}
	cr := &crcReader{r: br}
	name, err := cr.readStr()
	if err != nil {
		return nil, err
	}
	ncols, err := cr.readU32()
	if err != nil {
		return nil, err
	}
	if ncols > 1<<10 {
		return nil, fmt.Errorf("checkpoint: implausible column count %d", ncols)
	}
	img := &image{schema: columnar.Schema{Name: name}, dicts: map[int][]string{}}
	for i := uint32(0); i < ncols; i++ {
		cname, err := cr.readStr()
		if err != nil {
			return nil, err
		}
		var tb [1]byte
		if err := cr.read(tb[:]); err != nil {
			return nil, err
		}
		img.schema.Columns = append(img.schema.Columns, columnar.ColumnDef{
			Name: cname, Type: columnar.Type(tb[0]),
		})
	}
	if img.rows, err = cr.readU64(); err != nil {
		return nil, err
	}
	if err := cr.endSection("header"); err != nil {
		return nil, err
	}
	img.cols = make([][]int64, ncols)
	for c := range img.cols {
		img.cols[c] = make([]int64, img.rows)
		for i := uint64(0); i < img.rows; i++ {
			v, err := cr.readU64()
			if err != nil {
				return nil, fmt.Errorf("checkpoint: column %d row %d: %w", c, i, err)
			}
			img.cols[c][i] = int64(v)
		}
		if err := cr.endSection(fmt.Sprintf("column %d", c)); err != nil {
			return nil, err
		}
	}
	for c, def := range img.schema.Columns {
		if def.Type != columnar.String {
			continue
		}
		n, err := cr.readU32()
		if err != nil {
			return nil, err
		}
		if uint64(n) > img.rows+1<<16 {
			return nil, fmt.Errorf("checkpoint: implausible dictionary size %d", n)
		}
		strs := make([]string, 0, n)
		for code := uint32(0); code < n; code++ {
			s, err := cr.readStr()
			if err != nil {
				return nil, err
			}
			strs = append(strs, s)
		}
		if err := cr.endSection(fmt.Sprintf("dictionary %d", c)); err != nil {
			return nil, err
		}
		img.dicts[c] = strs
	}
	return img, nil
}

// fill loads a decoded image into an empty table: dictionaries first (so
// raw codes stay valid — codes are assigned in order of first appearance,
// and the checkpoint stores them in code order), then the decoded columns
// as they are, in one column-major append with commit timestamp 0.
func fill(t *columnar.Table, img *image) error {
	for c, strs := range img.dicts {
		d := t.Dict(c)
		for code, s := range strs {
			if got := d.Code(s); got != int64(code) {
				return fmt.Errorf("checkpoint: dictionary code drift: %q -> %d, want %d", s, got, code)
			}
		}
	}
	t.AppendColumns(img.cols, 0)
	return nil
}

// ReadInto restores a checkpoint into an existing, empty table — the
// whole-database recovery path, where tables are created by the engine
// (with their index and replica plumbing) before being filled. Both
// instances receive the data (as a load would), with commit timestamp 0.
// The table's schema must match the checkpoint's exactly.
func ReadInto(r io.Reader, t *columnar.Table) error {
	img, err := decode(r)
	if err != nil {
		return err
	}
	if t.Rows() != 0 {
		return fmt.Errorf("checkpoint: table %q not empty (%d rows)", t.Schema().Name, t.Rows())
	}
	want := t.Schema()
	if want.Name != img.schema.Name || len(want.Columns) != len(img.schema.Columns) {
		return fmt.Errorf("checkpoint: schema mismatch: file %q/%d cols, table %q/%d cols",
			img.schema.Name, len(img.schema.Columns), want.Name, len(want.Columns))
	}
	for i, c := range want.Columns {
		fc := img.schema.Columns[i]
		if c.Name != fc.Name || c.Type != fc.Type {
			return fmt.Errorf("checkpoint: column %d mismatch: file %s/%d, table %s/%d",
				i, fc.Name, fc.Type, c.Name, c.Type)
		}
	}
	return fill(t, img)
}
