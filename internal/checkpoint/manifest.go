package checkpoint

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
)

// Manifest format (little-endian):
//
//	magic "EHMF" | version u32
//	clock u64 | commits u64 | wal position u64
//	extras: u32 count, per entry (string key, u64 value), sorted by key
//	tables: u32 count, per table, in the order the commit log numbers them:
//	    name | rows u64 | replica rows u64
//	    dirty rows: u32 count, u64 row indices (OLAP-stale rows)
//	    file CRC32C u32 (whole <table>.ehcp file)
//	trailing u32 CRC32C of every preceding byte
//
// The manifest is the commit point of a checkpoint: table files are
// written and synced before it, so a crash mid-checkpoint leaves either a
// complete image or a manifest-less directory that recovery skips.
//
// Version 2 is the first whose log names a table by its id, its index in
// the manifest's table list; a version 1 image, whose log names tables by
// name, is refused.

const (
	manifestMagic   = "EHMF"
	manifestVersion = 2
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
	// Tables lists every table in the image, in the engine's creation
	// order: a log record's table id is an index into it.
	Tables []TableEntry
}

// WriteManifest serializes m with a trailing whole-file checksum.
func WriteManifest(w io.Writer, m *Manifest) error {
	cw := &crcWriter{w: bufio.NewWriterSize(w, 1<<16)}
	cw.write([]byte(manifestMagic))
	cw.writeU32(manifestVersion)
	cw.writeU64(m.Clock)
	cw.writeU64(m.Commits)
	cw.writeU64(uint64(m.WALPos))
	keys := slices.Sorted(maps.Keys(m.Extras))
	cw.writeU32(uint32(len(keys)))
	for _, k := range keys {
		cw.writeStr(k)
		cw.writeU64(uint64(m.Extras[k]))
	}
	cw.writeU32(uint32(len(m.Tables)))
	for _, te := range m.Tables {
		cw.writeStr(te.Name)
		cw.writeU64(uint64(te.Rows))
		cw.writeU64(uint64(te.ReplicaRows))
		cw.writeU32(uint32(len(te.Dirty)))
		for _, row := range te.Dirty {
			cw.writeU64(uint64(row))
		}
		cw.writeU32(te.FileCRC)
	}
	cw.endSection()
	return cw.flush()
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
