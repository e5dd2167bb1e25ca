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
//
// Column data moves a chunk run at a time in both directions: Write
// encodes each run of the snapshot instance into one buffer and hands it
// out in one write, and ReadInto decodes each run of the file straight into
// the table's own chunks (columnar.Table.AppendColumns) in one read — one
// checksum update per run either way. A restore publishes no row unless
// every section of the file, dictionaries included, has verified.
//
// The durability directory is this package's alone: it names every file,
// writes and lists the images, restores one and opens the log.
//
//	<dir>/wal.log            the commit log, shared by every checkpoint
//	<dir>/ckpt-<seq>/        one complete database image
//	    <table>.ehcp         per-table v2 checkpoint files
//	    MANIFEST             written last; a directory without a valid
//	                         manifest is torn and ignored
//
// Every file of an image goes through one routine: create, stream through
// a CRC32C tee, Sync, Close. The table files go first, each checksum
// landing in its manifest entry, and the manifest last: it is the image's
// commit point.
//
// Only a not-exist error means absent: no log yet, no image yet, a
// checkpoint torn before its manifest. A file or directory that exists but
// cannot be opened or listed is an error, because treating it as absent
// would recover without the commits it holds, number a new image over a
// complete one, or start a log over the one already there.
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
// endSection, so each format section carries its own checksum. The first
// write error sticks: later writes are dropped and flush returns it.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	buf [8]byte
	err error
}

func (cw *crcWriter) write(p []byte) {
	if cw.err == nil {
		var n int
		n, cw.err = cw.w.Write(p)
		cw.crc = crc32.Update(cw.crc, wal.Castagnoli, p[:n])
	}
}

func (cw *crcWriter) writeU32(v uint32) {
	binary.LittleEndian.PutUint32(cw.buf[:4], v)
	cw.write(cw.buf[:4])
}

func (cw *crcWriter) writeU64(v uint64) {
	binary.LittleEndian.PutUint64(cw.buf[:8], v)
	cw.write(cw.buf[:8])
}

func (cw *crcWriter) writeStr(s string) {
	cw.writeU32(uint32(len(s)))
	cw.write([]byte(s))
}

// endSection emits the accumulated checksum (not itself checksummed) and
// starts the next section.
func (cw *crcWriter) endSection() {
	binary.LittleEndian.PutUint32(cw.buf[:4], cw.crc)
	cw.write(cw.buf[:4])
	cw.crc = 0
}

// flush returns the first write error, or flushes the buffer.
func (cw *crcWriter) flush() error {
	if cw.err != nil {
		return cw.err
	}
	return cw.w.Flush()
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

// Write serializes rows [0, rows) of the snapshot instance of a table,
// each column a chunk run at a time: a run is encoded into one buffer and
// written, and checksummed, in one call. The instance must be quiescent
// below the watermark (an inactive instance after Switch, or any instance
// with no concurrent writers).
func Write(w io.Writer, t *columnar.Table, inst *columnar.Instance, rows int64) error {
	cw := &crcWriter{w: bufio.NewWriterSize(w, maxRunBytes)}
	cw.write([]byte(magic))
	cw.writeU32(version)
	cw.crc = 0 // the magic and version precede the header section
	schema := t.Schema()
	cw.writeStr(schema.Name)
	cw.writeU32(uint32(len(schema.Columns)))
	for _, c := range schema.Columns {
		cw.writeStr(c.Name)
		cw.write([]byte{byte(c.Type)})
	}
	cw.writeU64(uint64(rows))
	cw.endSection()
	buf := make([]byte, runBytes(rows))
	for c := range schema.Columns {
		inst.Col(c).Scan(0, rows, func(vals []int64, _ int64) {
			if cw.err != nil {
				return
			}
			raw := buf[:8*len(vals)]
			for i, v := range vals {
				binary.LittleEndian.PutUint64(raw[8*i:], uint64(v))
			}
			cw.write(raw)
		})
		cw.endSection()
	}
	for c, def := range schema.Columns {
		if def.Type != columnar.String {
			continue
		}
		d := t.Dict(c)
		n := d.Len()
		cw.writeU32(uint32(n))
		for code := 0; code < n; code++ {
			cw.writeStr(d.Str(int64(code)))
		}
		cw.endSection()
	}
	return cw.flush()
}

// maxRunBytes is the encoded size of one chunk run, the most column data
// moved by one read or write.
const maxRunBytes = 8 * columnar.ChunkSize

// runBytes sizes the run buffer for a column of rows words.
func runBytes(rows int64) int64 { return 8 * min(rows, columnar.ChunkSize) }

// ReadInto restores a checkpoint into an existing, empty table — the
// whole-database recovery path, where tables are created by the engine
// (with their index and replica plumbing) before being filled. Both
// instances receive the data (as a load would), with commit timestamp 0.
// The table's schema must match the checkpoint's exactly.
//
// The header, the schema and the table's emptiness are checked before any
// storage is touched. Each column section is then decoded a chunk run at a
// time straight into the table's chunks — one read and one checksum update
// per run — and its checksum checked after its last run; the dictionaries
// follow the last column. Nothing is published unless every section has
// verified: on any error the table still has no rows.
func ReadInto(r io.Reader, t *columnar.Table) error {
	cr := &crcReader{r: bufio.NewReaderSize(r, maxRunBytes)}
	rows, err := readHeader(cr, t)
	if err != nil {
		return err
	}
	rs := &restorer{cr: cr, t: t, rows: rows, buf: make([]byte, runBytes(rows))}
	if rows == 0 {
		for c := range t.Schema().Columns {
			if err := rs.endColumn(c); err != nil {
				return err
			}
		}
		return nil
	}
	_, err = t.AppendColumns(rows, 0, rs.run)
	return err
}

// readHeader reads and verifies the magic, version and header section,
// and checks them against t: same schema, no rows yet. It returns the
// file's row count.
func readHeader(cr *crcReader, t *columnar.Table) (int64, error) {
	head := make([]byte, 4)
	if _, err := io.ReadFull(cr.r, head); err != nil {
		return 0, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if string(head) != magic {
		return 0, fmt.Errorf("checkpoint: bad magic %q", head)
	}
	if _, err := io.ReadFull(cr.r, head); err != nil {
		return 0, err
	}
	if ver := binary.LittleEndian.Uint32(head); ver != version {
		return 0, fmt.Errorf("checkpoint: unsupported version %d", ver)
	}
	name, err := cr.readStr()
	if err != nil {
		return 0, err
	}
	ncols, err := cr.readU32()
	if err != nil {
		return 0, err
	}
	if ncols > 1<<10 {
		return 0, fmt.Errorf("checkpoint: implausible column count %d", ncols)
	}
	file := columnar.Schema{Name: name}
	for i := uint32(0); i < ncols; i++ {
		cname, err := cr.readStr()
		if err != nil {
			return 0, err
		}
		var tb [1]byte
		if err := cr.read(tb[:]); err != nil {
			return 0, err
		}
		file.Columns = append(file.Columns, columnar.ColumnDef{Name: cname, Type: columnar.Type(tb[0])})
	}
	rows, err := cr.readU64()
	if err != nil {
		return 0, err
	}
	if rows > maxRows {
		return 0, fmt.Errorf("checkpoint: implausible row count %d", rows)
	}
	if err := cr.endSection("header"); err != nil {
		return 0, err
	}
	if t.Rows() != 0 {
		return 0, fmt.Errorf("checkpoint: table %q not empty (%d rows)", t.Schema().Name, t.Rows())
	}
	want := t.Schema()
	if want.Name != file.Name || len(want.Columns) != len(file.Columns) {
		return 0, fmt.Errorf("checkpoint: schema mismatch: file %q/%d cols, table %q/%d cols",
			file.Name, len(file.Columns), want.Name, len(want.Columns))
	}
	for i, c := range want.Columns {
		fc := file.Columns[i]
		if c.Name != fc.Name || c.Type != fc.Type {
			return 0, fmt.Errorf("checkpoint: column %d mismatch: file %s/%d, table %s/%d",
				i, fc.Name, fc.Type, c.Name, c.Type)
		}
	}
	return int64(rows), nil
}

// maxRows bounds a table's row count in a header or a manifest: more rows
// than any table's chunk directory could be asked to hold is damage, not
// a checkpoint.
const maxRows = 1 << 40

// restorer decodes the column and dictionary sections of one checkpoint
// file into the runs AppendColumns hands it, in file order: column 0's
// runs, then column 1's, and the dictionaries after the last column.
type restorer struct {
	cr   *crcReader
	t    *columnar.Table
	rows int64
	done int64  // rows of the current column decoded so far
	buf  []byte // one chunk run of encoded words
}

// run decodes the next run of column c into dst with one read and one
// checksum update, and closes the column after its last run.
func (rs *restorer) run(c int, dst []int64) error {
	raw := rs.buf[:8*len(dst)]
	if err := rs.cr.read(raw); err != nil {
		return fmt.Errorf("checkpoint: column %d row %d: %w", c, rs.done, err)
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	if rs.done += int64(len(dst)); rs.done < rs.rows {
		return nil
	}
	rs.done = 0
	return rs.endColumn(c)
}

// endColumn checks column c's section checksum and, after the last column,
// reads the dictionaries.
func (rs *restorer) endColumn(c int) error {
	if err := rs.cr.endSection(fmt.Sprintf("column %d", c)); err != nil {
		return err
	}
	if c < len(rs.t.Schema().Columns)-1 {
		return nil
	}
	return rs.dictionaries()
}

// dictionaries reads and verifies every String column's dictionary, and
// only then seats them in the table's dictionaries: codes are assigned in
// order of first appearance and the checkpoint stores them in code order,
// so the restored raw codes stay valid.
func (rs *restorer) dictionaries() error {
	cols := rs.t.Schema().Columns
	dicts := make([][]string, len(cols))
	for c, def := range cols {
		if def.Type != columnar.String {
			continue
		}
		n, err := rs.cr.readU32()
		if err != nil {
			return err
		}
		if int64(n) > rs.rows+1<<16 {
			return fmt.Errorf("checkpoint: implausible dictionary size %d", n)
		}
		strs := make([]string, 0, n)
		for code := uint32(0); code < n; code++ {
			s, err := rs.cr.readStr()
			if err != nil {
				return err
			}
			strs = append(strs, s)
		}
		if err := rs.cr.endSection(fmt.Sprintf("dictionary %d", c)); err != nil {
			return err
		}
		dicts[c] = strs
	}
	for c, strs := range dicts {
		d := rs.t.Dict(c)
		for code, s := range strs {
			if got := d.Code(s); got != int64(code) {
				return fmt.Errorf("checkpoint: dictionary code drift: %q -> %d, want %d", s, got, code)
			}
		}
	}
	return nil
}
