package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// serialReplay is the one-goroutine scan Replay's pipeline must be
// indistinguishable from: read, check, decode and call fn a record at a
// time, counting each record after its callback.
func serialReplay(data []byte, from int64, fn func(pos int64, rec *Record) error) (ReplayStats, error) {
	var st ReplayStats
	for pos := int64(0); ; {
		if int64(len(data))-pos < frameHeader {
			st.Truncated = pos != int64(len(data))
			return st, nil
		}
		length := int64(binary.LittleEndian.Uint32(data[pos:]))
		if length < headerBytes || length > maxPayload || int64(len(data))-pos-frameHeader < length {
			st.Truncated = true
			return st, nil
		}
		payload := data[pos+frameHeader : pos+frameHeader+length]
		if crc32.Checksum(payload, Castagnoli) != binary.LittleEndian.Uint32(data[pos+4:]) {
			st.Truncated = true
			return st, nil
		}
		if pos >= from {
			rec, err := DecodeRecord(payload)
			if err != nil {
				st.Truncated = true
				return st, nil
			}
			if err := fn(pos, rec); err != nil {
				return st, err
			}
			st.Replayed++
		}
		pos += frameHeader + length
		st.Records++
		st.ValidPos = pos
	}
}

// replayLog builds a log of n records of mixed shapes, enough to fill
// several of the scanner's batches, and returns its bytes, the records and
// each record's start offset.
func replayLog(t *testing.T, n int) ([]byte, []*Record, []int64) {
	t.Helper()
	fs := NewMemFS()
	l := openLog(t, fs, SyncNever)
	var recs []*Record
	var pos []int64
	for i := 0; i < n; i++ {
		rec := updateRec(uint64(i), "stock", int64(i), uint32(i%7), int64(-i))
		if i%3 == 0 {
			rec = insertRec(uint64(i), "orderline", 1+i%4, 10)
		}
		start := l.Pos()
		if _, err := l.Append(rec, nil); err != nil {
			t.Fatal(err)
		}
		recs, pos = append(recs, rec), append(pos, start)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("db/wal.log")
	data, _ := io.ReadAll(f)
	f.Close()
	return data, recs, pos
}

// settles waits for the goroutine count to fall back to want.
func settles(t *testing.T, want int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the replay", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplayFailureStatsMatchSerialScan: when fn fails at record k, the
// pipelined Replay returns fn's error with exactly the stats the serial
// scan reports — the records before k counted, k not — from any
// watermark, and its scanner is gone by then.
func TestReplayFailureStatsMatchSerialScan(t *testing.T) {
	data, recs, pos := replayLog(t, 3*replayBatch+17)
	errStop := errors.New("stop")
	before := runtime.NumGoroutine()
	for _, from := range []int64{0, pos[replayBatch+5]} {
		for _, k := range []int{0, 1, replayBatch - 1, replayBatch, 2*replayBatch + 3, len(recs) - 1} {
			if pos[k] < from {
				continue
			}
			failAt := func(p int64, _ *Record) error {
				if p == pos[k] {
					return errStop
				}
				return nil
			}
			want, werr := serialReplay(data, from, failAt)
			got, gerr := Replay(bytes.NewReader(data), from, failAt)
			if !errors.Is(gerr, errStop) || !errors.Is(werr, errStop) || got != want {
				t.Fatalf("from %d, fn fails at record %d: got %+v, %v; serial scan %+v, %v", from, k, got, gerr, want, werr)
			}
			settles(t, before, "after a failing callback")
		}
	}
	for _, from := range []int64{0, pos[7], pos[len(pos)-1] + 1} {
		want, _ := serialReplay(data, from, func(int64, *Record) error { return nil })
		got, err := Replay(bytes.NewReader(data), from, func(int64, *Record) error { return nil })
		if err != nil || got != want {
			t.Fatalf("from %d: got %+v, %v; serial scan %+v", from, got, err, want)
		}
		if got, _ := Replay(bytes.NewReader(data), from, nil); got != want {
			t.Fatalf("from %d without a callback: got %+v; serial scan %+v", from, got, want)
		}
	}
	settles(t, before, "after clean scans")
}

// TestReplayStopsAtCorruptRecordMidLog: a bit flip in a record deep in the
// log — several batches past the first — ends the scan there, Truncated,
// and no callback runs for it or anything after it, although the scanner
// had later records in hand.
func TestReplayStopsAtCorruptRecordMidLog(t *testing.T) {
	data, _, pos := replayLog(t, 3*replayBatch)
	bad := 2*replayBatch + 9
	data[pos[bad]+frameHeader+5] ^= 0x10
	before := runtime.NumGoroutine()
	var seen []int64
	st, err := Replay(bytes.NewReader(data), 0, func(p int64, _ *Record) error {
		seen = append(seen, p)
		return nil
	})
	if err != nil || !st.Truncated || st.ValidPos != pos[bad] || st.Records != bad || st.Replayed != bad {
		t.Fatalf("stats %+v, %v; want truncation at record %d, offset %d", st, err, bad, pos[bad])
	}
	if !reflect.DeepEqual(seen, pos[:bad]) {
		t.Fatalf("callbacks ran for %d records, want the %d before the corrupt one, in order", len(seen), bad)
	}
	settles(t, before, "after a truncated scan")
}

// TestReplayKeptRecordsStayIntact: the records handed to fn are fn's to
// keep — bench/probe.go re-appends them after the scan — so every one of
// them still equals what was logged once Replay has returned, however far
// the scanner decoded ahead.
func TestReplayKeptRecordsStayIntact(t *testing.T) {
	data, recs, _ := replayLog(t, 2*replayBatch+40)
	var kept []*Record
	if _, err := Replay(bytes.NewReader(data), 0, func(_ int64, rec *Record) error {
		kept = append(kept, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(recs) {
		t.Fatalf("kept %d records, logged %d", len(kept), len(recs))
	}
	for i, rec := range kept {
		if !reflect.DeepEqual(rec, recs[i]) {
			t.Fatalf("record %d after the scan: %+v, logged %+v", i, rec, recs[i])
		}
	}
}

// TestReplayGoroutineGoneOnPanic: a callback that panics leaves no scanner
// behind, even one blocked handing over a full channel.
func TestReplayGoroutineGoneOnPanic(t *testing.T) {
	data, _, _ := replayLog(t, (replayAhead+4)*replayBatch)
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the callback's panic did not reach the caller")
			}
		}()
		Replay(bytes.NewReader(data), 0, func(int64, *Record) error {
			time.Sleep(time.Millisecond) // let the scanner fill the channel
			panic("apply failed")
		})
	}()
	settles(t, before, "after a panicking callback")
}

// TestDecodeRecordAllocs pins what decoding a NewOrder-shaped record costs:
// the record, its ops and one block of insert values — no string per op's
// table name, no slice per insert.
func TestDecodeRecordAllocs(t *testing.T) {
	rec := &Record{TxnID: 9, CommitTS: 10}
	rec.Ops = append(rec.Ops, Op{Kind: OpUpdate, Table: "district", Row: 3, Col: 10, Val: 3001})
	for i := 0; i < 39; i++ {
		rec.Ops = append(rec.Ops, Op{Kind: OpUpdate, Table: "stock", Row: int64(100 + i/4), Col: uint32(2 + i%4), Val: int64(i)})
	}
	for _, ins := range []struct {
		table       string
		rows, width int
	}{{"orders", 1, 8}, {"neworder", 1, 3}, {"orderline", 10, 10}} {
		rec.Ops = append(rec.Ops, Op{Kind: OpInsert, Table: ins.table, NRows: ins.rows, Width: ins.width,
			Vals: make([]int64, ins.rows*ins.width)})
	}
	buf := make([]byte, frameHeader+payloadSize(rec))
	payload := buf[frameHeader:encodeFrame(buf, rec)]
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRecord(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("DecodeRecord of 40 updates and 3 inserts: %.1f allocations, want at most 3", allocs)
	}
}
