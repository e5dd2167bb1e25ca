package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"slices"
	"time"

	"elastichtap/internal/columnar"
	"elastichtap/internal/wal"
)

// WALName is the commit log's file name under the durability directory.
const WALName = "wal.log"

// absent reports whether err says the file or directory does not exist.
func absent(err error) bool { return errors.Is(err, iofs.ErrNotExist) }

// SeqDir names the directory of checkpoint sequence seq under dir.
func SeqDir(dir string, seq uint64) string {
	return fmt.Sprintf("%s/ckpt-%08d", dir, seq)
}

// tablePath names table name's checkpoint file in image directory seqDir.
func tablePath(seqDir, name string) string { return seqDir + "/" + name + ".ehcp" }

// parseSeq extracts the sequence from a ckpt-<seq> entry name.
func parseSeq(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "ckpt-%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// seqs lists the sequence of every ckpt-* entry under dir, complete or
// torn, highest first. A directory that does not exist has none.
func seqs(fs wal.FS, dir string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if absent(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: listing %s: %w", dir, err)
	}
	var out []uint64
	for _, name := range names {
		if s, isCkpt := parseSeq(name); isCkpt {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	slices.Reverse(out)
	return out, nil
}

// Latest scans dir for the highest-sequence checkpoint with a valid
// manifest and returns its sequence and manifest. Directories whose
// manifest is missing or does not verify (torn checkpoints) are skipped.
// ok is false when no complete checkpoint exists.
func Latest(fs wal.FS, dir string) (seq uint64, m *Manifest, ok bool, err error) {
	all, err := seqs(fs, dir)
	if err != nil {
		return 0, nil, false, err
	}
	for _, s := range all {
		path := SeqDir(dir, s) + "/" + ManifestName
		f, err := fs.Open(path)
		if absent(err) {
			continue // torn: the manifest never landed
		}
		if err != nil {
			return 0, nil, false, fmt.Errorf("checkpoint: %w", err)
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
func NextSeq(fs wal.FS, dir string) (uint64, error) {
	all, err := seqs(fs, dir)
	if err != nil || len(all) == 0 {
		return 1, err
	}
	return all[0] + 1, nil
}

// OpenLog opens the commit log under dir for appending, creating dir if
// needed. An existing log is scanned, truncated at its first corrupt or
// torn record, and appended to from there.
func OpenLog(fs wal.FS, dir string, policy wal.SyncPolicy, interval time.Duration) (*wal.Log, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	name := dir + "/" + WALName
	start := int64(0)
	f, err := fs.Open(name)
	if err != nil && !absent(err) {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err == nil {
		st, rerr := wal.Replay(f, 0, nil)
		f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("checkpoint: scanning %s: %w", name, rerr)
		}
		if st.Truncated {
			if err := fs.Truncate(name, st.ValidPos); err != nil {
				return nil, err
			}
		}
		start = st.ValidPos
	}
	return wal.Open(fs, name, policy, interval, start)
}

// Snapshot is one table's share of an image: rows [0, entry.Rows) of
// Inst, a quiescent instance of Table (an inactive twin after a switch).
type Snapshot struct {
	Table *columnar.Table
	Inst  *columnar.Instance
}

// WriteImage writes a complete image under dir at the next sequence and
// returns that sequence: snaps[i] becomes man.Tables[i]'s file, whose
// checksum it records in the entry, and the manifest is written last.
// The caller has made the log below man.WALPos durable.
func WriteImage(fs wal.FS, dir string, man *Manifest, snaps []Snapshot) (uint64, error) {
	seq, err := NextSeq(fs, dir)
	if err != nil {
		return 0, err
	}
	seqDir := SeqDir(dir, seq)
	if err := fs.MkdirAll(seqDir); err != nil {
		return 0, fmt.Errorf("checkpoint: %s: %w", seqDir, err)
	}
	for i, s := range snaps {
		te := &man.Tables[i]
		crc, err := writeFile(fs, tablePath(seqDir, te.Name), func(w io.Writer) error {
			return Write(w, s.Table, s.Inst, te.Rows)
		})
		if err != nil {
			return 0, err
		}
		te.FileCRC = crc
	}
	if _, err := writeFile(fs, seqDir+"/"+ManifestName, func(w io.Writer) error {
		return WriteManifest(w, man)
	}); err != nil {
		return 0, err
	}
	return seq, nil
}

// writeFile creates path, streams write's output into it through a CRC32C
// tee, syncs and closes it, and returns the file's checksum.
func writeFile(fs wal.FS, path string, write func(io.Writer) error) (uint32, error) {
	f, err := fs.Create(path)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	hash := crc32.New(wal.Castagnoli)
	err = write(io.MultiWriter(f, hash))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return hash.Sum32(), nil
}

// Recover restores image seq under dir, described by man, into empty
// tables (table resolves a manifest name, nil if unknown) and replays the
// log suffix above man.WALPos through apply, returning the scan's stats.
// The log scan starts before the restore: its scanner verifies the prefix
// below the image's position and decodes the suffix ahead while the tables
// are read in. The first record applies once every table and its dirty
// bits are in; apply then runs on each record in log order.
func Recover(fs wal.FS, dir string, seq uint64, man *Manifest, table func(name string) *columnar.Table, apply func(*wal.Record) error) (wal.ReplayStats, error) {
	var st wal.ReplayStats
	f, err := fs.Open(dir + "/" + WALName)
	if err != nil && !absent(err) {
		return st, fmt.Errorf("opening the log: %w", err)
	}
	var restoreErr, replayErr error
	restored, replayed := make(chan struct{}), make(chan struct{})
	if err == nil {
		go func() {
			defer close(replayed)
			defer f.Close()
			waiting := true
			st, replayErr = wal.Replay(f, man.WALPos, func(_ int64, rec *wal.Record) error {
				if waiting {
					if <-restored; restoreErr != nil {
						return errRestoreFailed
					}
					waiting = false
				}
				return apply(rec)
			})
		}()
	} else {
		close(replayed)
	}
	restoreErr = restoreTables(fs, SeqDir(dir, seq), man, table)
	close(restored)
	<-replayed
	if restoreErr != nil {
		return st, restoreErr
	}
	if replayErr != nil {
		return st, fmt.Errorf("replaying log: %w", replayErr)
	}
	return st, nil
}

// errRestoreFailed stops a log replay whose image could not be restored.
var errRestoreFailed = errors.New("checkpoint image not restored")

// restoreTables reads every table file of the image in seqDir into its
// (empty) table, checking each file against the manifest, and sets the
// tables' restored dirty bits.
func restoreTables(fs wal.FS, seqDir string, man *Manifest, table func(name string) *columnar.Table) error {
	for _, te := range man.Tables {
		t := table(te.Name)
		if t == nil {
			return fmt.Errorf("manifest names unknown table %q", te.Name)
		}
		path := tablePath(seqDir, te.Name)
		f, err := fs.Open(path)
		if err != nil {
			return err
		}
		// The whole-file checksum is taken in the restoring pass: every
		// byte the restore reads goes through the hash, and what it leaves
		// unread after the last section is drained into it, because the
		// manifest's checksum covers trailing bytes too.
		hash := crc32.New(wal.Castagnoli)
		err = ReadInto(io.TeeReader(f, hash), t)
		if err == nil {
			_, err = io.Copy(hash, f)
		}
		f.Close()
		if err != nil {
			return fmt.Errorf("restoring %q: %w", te.Name, err)
		}
		if crc := hash.Sum32(); crc != te.FileCRC {
			return fmt.Errorf("%s: file checksum %08x, manifest says %08x", path, crc, te.FileCRC)
		}
		if t.Rows() != te.Rows {
			return fmt.Errorf("%q restored %d rows, manifest says %d", te.Name, t.Rows(), te.Rows)
		}
		bits := t.DirtyOLAP()
		for _, row := range te.Dirty {
			bits.Set(int(row))
		}
	}
	return nil
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
