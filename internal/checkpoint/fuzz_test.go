package checkpoint

import (
	"bytes"
	"reflect"
	"testing"

	"elastichtap/internal/columnar"
)

// FuzzReadInto feeds arbitrary bytes to a restore into an empty table of
// wideSchema. It may never panic; a failed restore leaves the table
// without rows; and a restore that succeeds read a checkpoint the table
// writes back byte for byte (anything after it is not the restore's).
func FuzzReadInto(f *testing.F) {
	for _, rows := range []int{0, 5} {
		tab := wideTable(rows)
		var buf bytes.Buffer
		if err := Write(&buf, tab, tab.Active(), tab.Rows()); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := columnar.NewTable(wideSchema, 0)
		if err := ReadInto(bytes.NewReader(data), tab); err != nil {
			if tab.Rows() != 0 {
				t.Fatalf("failed restore (%v) published %d rows", err, tab.Rows())
			}
			return
		}
		var again bytes.Buffer
		if err := Write(&again, tab, tab.Active(), tab.Rows()); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("restored %d rows that re-checkpoint to other bytes", tab.Rows())
		}
	})
}

// FuzzReadManifest feeds arbitrary bytes to the manifest decoder. It may
// never panic, and a manifest that parses re-encodes to bytes that read
// back to the same manifest.
func FuzzReadManifest(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteManifest(&buf, sampleManifest()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(manifestMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteManifest(&again, m); err != nil {
			t.Fatal(err)
		}
		back, err := ReadManifest(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded manifest does not read: %v", err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("re-read %+v, parsed %+v", back, m)
		}
	})
}
