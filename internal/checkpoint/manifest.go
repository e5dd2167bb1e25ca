package checkpoint

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"elastichtap/internal/wal"
)

// A whole-database checkpoint is a directory:
//
//	<dir>/wal.log            the commit log, shared by every checkpoint
//	<dir>/ckpt-<seq>/        one complete database image
//	    <table>.ehcp         per-table v2 checkpoint files
//	    MANIFEST             written last; a directory without a valid
//	                         manifest is torn and ignored
//
// Manifest format (little-endian):
//
//	magic "EHMF" | version u32
//	clock u64 | commits u64 | wal position u64
//	extras: u32 count, per entry (string key, u64 value), sorted by key
//	tables: u32 count, per table:
//	    name | rows u64 | replica rows u64
//	    dirty rows: u32 count, u64 row indices (OLAP-stale rows)
//	    file CRC32C u32 (whole <table>.ehcp file)
//	trailing u32 CRC32C of every preceding byte
//
// The manifest is the commit point of a checkpoint: table files are
// written and synced before it, so a crash mid-checkpoint leaves either a
// complete image or a manifest-less directory that recovery skips.

const (
	manifestMagic   = "EHMF"
	manifestVersion = 1
	// ManifestName is the file a checkpoint directory commits with.
	ManifestName = "MANIFEST"
)

// TableEntry records one table's identity and watermarks in a manifest.
type TableEntry struct {
	// Name is the table name; its checkpoint file is <Name>.ehcp.
	Name string
	// Rows is the row count captured, equal to the rows serialized.
	Rows int64
	// ReplicaRows is the OLAP replica's insert watermark at capture;
	// recovery re-copies rows [0, ReplicaRows) into the replica.
	ReplicaRows int64
	// Dirty lists the rows updated but not yet delta-ETL'd at capture, so
	// restored freshness metrics match the live engine's exactly.
	// Inserted rows are not listed — they are the rows at or above
	// ReplicaRows. Manifests written before that was so list them too;
	// the extra entries restore as bits above the watermark, which
	// freshness does not count and the first ETL clears without a copy.
	Dirty []int64
	// FileCRC is the CRC32C of the entire table checkpoint file.
	FileCRC uint32
}

// Manifest is the metadata that makes a set of table files a consistent
// database image resumable from a WAL position.
type Manifest struct {
	// Clock is the transaction manager's timestamp clock at capture.
	Clock uint64
	// Commits is the lifetime commit count at capture.
	Commits uint64
	// WALPos is the commit log byte offset the image is consistent with:
	// replay starts there.
	WALPos int64
	// Extras carries engine-defined scalars (current day, sizing) that
	// must survive recovery. Serialized sorted by key.
	Extras map[string]int64
	// Tables lists every table in the image.
	Tables []TableEntry
}

// WriteManifest serializes m with a trailing whole-file checksum.
func WriteManifest(w io.Writer, m *Manifest) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &crcWriter{w: bw}
	if err := cw.write([]byte(manifestMagic)); err != nil {
		return err
	}
	if err := cw.writeU32(manifestVersion); err != nil {
		return err
	}
	if err := cw.writeU64(m.Clock); err != nil {
		return err
	}
	if err := cw.writeU64(m.Commits); err != nil {
		return err
	}
	if err := cw.writeU64(uint64(m.WALPos)); err != nil {
		return err
	}
	keys := make([]string, 0, len(m.Extras))
	for k := range m.Extras {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if err := cw.writeU32(uint32(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := cw.writeStr(k); err != nil {
			return err
		}
		if err := cw.writeU64(uint64(m.Extras[k])); err != nil {
			return err
		}
	}
	if err := cw.writeU32(uint32(len(m.Tables))); err != nil {
		return err
	}
	for _, te := range m.Tables {
		if err := cw.writeStr(te.Name); err != nil {
			return err
		}
		if err := cw.writeU64(uint64(te.Rows)); err != nil {
			return err
		}
		if err := cw.writeU64(uint64(te.ReplicaRows)); err != nil {
			return err
		}
		if err := cw.writeU32(uint32(len(te.Dirty))); err != nil {
			return err
		}
		for _, row := range te.Dirty {
			if err := cw.writeU64(uint64(row)); err != nil {
				return err
			}
		}
		if err := cw.writeU32(te.FileCRC); err != nil {
			return err
		}
	}
	if err := cw.endSection(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadManifest parses and checksum-verifies a manifest. A manifest whose
// checksum holds but whose table counts contradict each other — a replica
// watermark above the row count, or a dirty row at or above it — is
// rejected too: recovery would index past the rows it restored.
func ReadManifest(r io.Reader) (*Manifest, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	cr := &crcReader{r: br}
	head := make([]byte, 4)
	if err := cr.read(head); err != nil {
		return nil, fmt.Errorf("checkpoint: manifest magic: %w", err)
	}
	if string(head) != manifestMagic {
		return nil, fmt.Errorf("checkpoint: bad manifest magic %q", head)
	}
	ver, err := cr.readU32()
	if err != nil {
		return nil, err
	}
	if ver != manifestVersion {
		return nil, fmt.Errorf("checkpoint: unsupported manifest version %d", ver)
	}
	m := &Manifest{Extras: map[string]int64{}}
	if m.Clock, err = cr.readU64(); err != nil {
		return nil, err
	}
	if m.Commits, err = cr.readU64(); err != nil {
		return nil, err
	}
	pos, err := cr.readU64()
	if err != nil {
		return nil, err
	}
	m.WALPos = int64(pos)
	nex, err := cr.readU32()
	if err != nil {
		return nil, err
	}
	if nex > 1<<16 {
		return nil, fmt.Errorf("checkpoint: implausible extras count %d", nex)
	}
	for i := uint32(0); i < nex; i++ {
		k, err := cr.readStr()
		if err != nil {
			return nil, err
		}
		v, err := cr.readU64()
		if err != nil {
			return nil, err
		}
		m.Extras[k] = int64(v)
	}
	ntab, err := cr.readU32()
	if err != nil {
		return nil, err
	}
	if ntab > 1<<16 {
		return nil, fmt.Errorf("checkpoint: implausible table count %d", ntab)
	}
	for i := uint32(0); i < ntab; i++ {
		var te TableEntry
		if te.Name, err = cr.readStr(); err != nil {
			return nil, err
		}
		rows, err := cr.readU64()
		if err != nil {
			return nil, err
		}
		te.Rows = int64(rows)
		rep, err := cr.readU64()
		if err != nil {
			return nil, err
		}
		te.ReplicaRows = int64(rep)
		if rows > maxRows || rep > rows {
			return nil, fmt.Errorf("checkpoint: table %q claims %d replica rows of %d rows", te.Name, rep, rows)
		}
		nd, err := cr.readU32()
		if err != nil {
			return nil, err
		}
		if int64(nd) > te.Rows {
			return nil, fmt.Errorf("checkpoint: table %q claims %d dirty of %d rows", te.Name, nd, te.Rows)
		}
		// The count is not yet checksummed: grow with the rows actually
		// read rather than trusting it for one allocation.
		te.Dirty = make([]int64, 0, min(nd, 1<<12))
		for k := uint32(0); k < nd; k++ {
			row, err := cr.readU64()
			if err != nil {
				return nil, err
			}
			if row >= rows {
				return nil, fmt.Errorf("checkpoint: table %q claims dirty row %d of %d rows", te.Name, row, rows)
			}
			te.Dirty = append(te.Dirty, int64(row))
		}
		if te.FileCRC, err = cr.readU32(); err != nil {
			return nil, err
		}
		m.Tables = append(m.Tables, te)
	}
	if err := cr.endSection("manifest"); err != nil {
		return nil, err
	}
	return m, nil
}

// SeqDir names the directory of checkpoint sequence seq under dir.
func SeqDir(dir string, seq uint64) string {
	return fmt.Sprintf("%s/ckpt-%08d", dir, seq)
}

// parseSeq extracts the sequence from a ckpt-<seq> entry name.
func parseSeq(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "ckpt-%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Latest scans dir for the highest-sequence checkpoint with a valid
// manifest and returns its sequence and manifest. Directories without a
// readable manifest (torn checkpoints) are skipped. ok is false when no
// complete checkpoint exists.
func Latest(fs wal.FS, dir string) (seq uint64, m *Manifest, ok bool, err error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return 0, nil, false, nil // no directory: no checkpoints
	}
	var seqs []uint64
	for _, name := range names {
		if s, isCkpt := parseSeq(name); isCkpt {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, s := range seqs {
		f, err := fs.Open(SeqDir(dir, s) + "/" + ManifestName)
		if err != nil {
			continue // torn: the manifest never landed
		}
		m, merr := ReadManifest(f)
		f.Close()
		if merr != nil {
			continue // torn or corrupt manifest
		}
		return s, m, true, nil
	}
	return 0, nil, false, nil
}

// NextSeq returns the sequence number the next checkpoint should use:
// one above the highest existing ckpt-* entry (complete or torn).
func NextSeq(fs wal.FS, dir string) uint64 {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return 1
	}
	var max uint64
	for _, name := range names {
		if s, isCkpt := parseSeq(name); isCkpt && s > max {
			max = s
		}
	}
	return max + 1
}

// FileCRC computes the whole-file CRC32C of name in a pass of its own.
// The engine takes the checksum in the pass that writes or restores the
// file instead; this is for a reader that has only the path.
func FileCRC(fs wal.FS, name string) (uint32, error) {
	f, err := fs.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.New(wal.Castagnoli)
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}
