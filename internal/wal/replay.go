package wal

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// ReplayStats summarizes one recovery scan of the log.
type ReplayStats struct {
	// ValidPos is the byte offset after the last intact record: the
	// truncation point for resuming appends. Everything beyond it is a
	// torn tail or corruption.
	ValidPos int64
	// Records counts intact records seen (from offset zero).
	Records int
	// Replayed counts records at or above the requested watermark whose
	// callback ran.
	Replayed int
	// Truncated reports whether the scan stopped at a corrupt or torn
	// record rather than a clean end of file.
	Truncated bool
}

// Replay scans the log from the beginning, verifying every record's
// framing and checksum, and invokes fn for each intact record whose start
// offset is at or above from — the checkpoint watermark; records below it
// are already reflected in the checkpoint image and are skipped without
// decoding. The scan stops at the first corrupt, torn or truncated
// record: that is the recovery contract ("truncate at the first corrupt
// record"), not an error. A non-nil error from fn aborts the scan and is
// returned, with the stats of the records before the one it failed on.
//
// With fn set, the scan is a two-stage pipeline. A scanner goroutine
// reads, checks and decodes records and hands them over in batches,
// at most replayAhead batches ahead; the caller's goroutine runs fn on
// each, strictly in log order. Every record fn gets is its own, to keep.
// The scanner has exited by the time Replay returns, however it returns.
// With a nil fn the scan — a validity check of the whole log — runs on
// the caller's goroutine alone.
func Replay(r io.Reader, from int64, fn func(pos int64, rec *Record) error) (ReplayStats, error) {
	sc := &scanner{br: bufio.NewReaderSize(r, 1<<20), from: from}
	var st ReplayStats
	if fn == nil {
		for {
			s, ok := sc.next()
			if !ok {
				st.Truncated = sc.truncated
				return st, nil
			}
			st.count(s)
		}
	}
	batches := make(chan []scanned, replayAhead)
	stop := make(chan struct{})
	go sc.run(batches, stop)
	defer func() {
		close(stop)
		for range batches { // until the scanner has closed it on its way out
		}
	}()
	for b := range batches {
		for _, s := range b {
			if s.rec != nil {
				if err := fn(st.ValidPos, s.rec); err != nil {
					return st, err
				}
			}
			st.count(s)
		}
	}
	// The channel is closed after the scanner's last write to sc.
	st.Truncated = sc.truncated
	return st, nil
}

const (
	// replayBatch is the number of records the scanner hands over at a
	// time, and replayAhead the number of batches it may have decoded
	// that the applier has not taken yet.
	replayBatch = 256
	replayAhead = 16
)

// scanned is one intact record: the offset it ends at and, if it starts
// at or above the replay watermark, its contents.
type scanned struct {
	end int64
	rec *Record
}

// count adds one intact record to the stats.
func (st *ReplayStats) count(s scanned) {
	if s.rec != nil {
		st.Replayed++
	}
	st.Records++
	st.ValidPos = s.end
}

// scanner reads the log a record at a time: framing, checksum and, at or
// above the watermark, decoding.
type scanner struct {
	br      *bufio.Reader
	from    int64
	head    [frameHeader]byte
	payload []byte
	pos     int64
	// truncated is set when a corrupt or torn record ended the scan.
	truncated bool
}

// next returns the next intact record, or false at the end of the usable
// log.
func (sc *scanner) next() (scanned, bool) {
	if _, err := io.ReadFull(sc.br, sc.head[:]); err != nil {
		// Clean EOF ends the log; a partial header is a torn tail.
		sc.truncated = err != io.EOF
		return scanned{}, false
	}
	length := int(binary.LittleEndian.Uint32(sc.head[:]))
	want := binary.LittleEndian.Uint32(sc.head[4:])
	if length < headerBytes || length > maxPayload {
		sc.truncated = true
		return scanned{}, false
	}
	if cap(sc.payload) < length {
		sc.payload = make([]byte, length+length/2)
	}
	payload := sc.payload[:length]
	if _, err := io.ReadFull(sc.br, payload); err != nil {
		sc.truncated = true
		return scanned{}, false
	}
	if crc32.Checksum(payload, Castagnoli) != want {
		sc.truncated = true
		return scanned{}, false
	}
	s := scanned{end: sc.pos + int64(frameHeader+length)}
	if sc.pos >= sc.from {
		rec, err := DecodeRecord(payload)
		if err != nil {
			// The frame checksum passed but the payload is malformed:
			// an encoder bug or a collision — stop, like corruption.
			sc.truncated = true
			return scanned{}, false
		}
		s.rec = rec
	}
	sc.pos = s.end
	return s, true
}

// run is the scanner goroutine: it sends the log's intact records in
// batches until the log ends or stop closes, then closes out.
func (sc *scanner) run(out chan<- []scanned, stop <-chan struct{}) {
	defer close(out)
	for ok := true; ok; {
		b := make([]scanned, 0, replayBatch)
		for ok && len(b) < replayBatch {
			var s scanned
			if s, ok = sc.next(); ok {
				b = append(b, s)
			}
		}
		if len(b) == 0 {
			return
		}
		select {
		case out <- b:
		case <-stop:
			return
		}
	}
}
