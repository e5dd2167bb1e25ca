package ch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
)

// loadFingerprint hashes everything a load leaves behind, table by table
// in creation order: the row count, every active cell and row timestamp
// word column by column, each String column's dictionary in code order,
// and the primary index's entry count (-1 for an index-less table).
func loadFingerprint(db *DB) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(w int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(w))
		h.Write(b[:])
	}
	for _, th := range db.Tables() {
		t := th.Table()
		h.Write([]byte(t.Schema().Name))
		rows := t.Rows()
		word(rows)
		for c, def := range t.Schema().Columns {
			for r := range rows {
				word(t.ReadActive(r, c))
			}
			if def.Type == columnar.String {
				d := t.Dict(c)
				word(int64(d.Len()))
				for code := range int64(d.Len()) {
					h.Write([]byte(d.Str(code)))
					h.Write([]byte{0})
				}
			}
		}
		for r := range rows {
			word(int64(t.RowTS(r)))
		}
		n := int64(-1)
		if th.Index != nil {
			n = int64(th.Index.Len())
		}
		word(n)
	}
	return h.Sum64()
}

// TestLoadFingerprintPinned pins what Load builds from seed 42, cell for
// cell and dictionary code for code: a generator that reorders its RNG
// draws or assigns string codes in another order changes the database
// every golden and checkpoint is compared against.
func TestLoadFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		sizing Sizing
		want   uint64
	}{
		{"tiny", TinySizing(), 0xe1509022311a7729},
		{"sf0.01", SizingForScale(0.01), 0x659671caa2c69930},
	} {
		if got := loadFingerprint(Load(oltp.NewEngine(), c.sizing, 42)); got != c.want {
			t.Errorf("%s: load fingerprint = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestAppenderChecksCells: a generator that writes a column with a setter
// of another kind, or ends a row without one of its columns, panics with
// the table's and the column's names, and appends nothing.
func TestAppenderChecksCells(t *testing.T) {
	for _, c := range []struct {
		name     string
		cid      func(a *appender) // writes column c_id
		skipLast bool              // leaves column c_last out
		col      string            // the column the panic names
	}{
		{"float into int64", func(a *appender) { a.f(CID, 1) }, false, "c_id"},
		{"column skipped", func(a *appender) { a.i(CID, 1) }, true, "c_last"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := Attach(oltp.NewEngine(), TinySizing())
			a := newAppender(db.Customer)
			defer func() {
				msg := fmt.Sprint(recover())
				for _, name := range []string{`"customer"`, c.col} {
					if !strings.Contains(msg, name) {
						t.Errorf("panic %q does not name %s", msg, name)
					}
				}
				if n := db.Customer.Table().Rows(); n != 0 {
					t.Errorf("%d rows appended", n)
				}
			}()
			c.cid(a)
			a.i(CDID, 1)
			a.i(CWID, 1)
			a.s(CFirst, "Ada")
			if !c.skipLast {
				a.s(CLast, "BARBARBAR")
			}
			a.s(CCredit, "GC")
			a.f(CDiscount, 0.1)
			a.f(CBalance, -10)
			a.f(CYtdPayment, 10)
			a.i(CPaymentCnt, 1)
			a.i(CSince, LoadDay)
			a.i(CNationkey, 3)
			a.end()
			a.flush()
			t.Fatal("no panic")
		})
	}
}
