package elastichtap

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"elastichtap/internal/ch"
	"elastichtap/internal/checkpoint"
	"elastichtap/internal/columnar"
	"elastichtap/internal/wal"
)

// fuzzImage is FuzzOpenFromDir's seed: the smallest CH database with a
// bootstrap checkpoint, a second checkpoint a few commits in, and a log
// running past it — a manifest, table files, a log prefix below the image
// and a suffix above it. Built once, copied per input.
var fuzzImage = sync.OnceValues(func() (*wal.MemFS, error) {
	sys, err := New()
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.db = ch.Load(sys.inner.OLTPE, ch.TinySizing(), 1)
	sys.inner.PrimeReplicas()
	fs := wal.NewMemFS()
	if err := sys.EnableWAL(fs, "data", SyncAlways, 0); err != nil {
		return nil, err
	}
	if _, err := sys.CheckpointDB(fs, "data"); err != nil {
		return nil, err
	}
	if err := sys.StartWorkload(50); err != nil {
		return nil, err
	}
	sys.Run(20)
	if _, err := sys.CheckpointDB(fs, "data"); err != nil {
		return nil, err
	}
	sys.Run(20)
	return fs.Crash(false), nil
})

// imageFiles lists every file of a durability directory, sorted.
func imageFiles(fs FS, dir string) []string {
	var files []string
	names, _ := fs.ReadDir(dir)
	for _, n := range names {
		if strings.HasPrefix(n, "ckpt-") {
			inner, _ := fs.ReadDir(dir + "/" + n)
			for _, m := range inner {
				files = append(files, dir+"/"+n+"/"+m)
			}
		} else {
			files = append(files, dir+"/"+n)
		}
	}
	sort.Strings(files)
	return files
}

func readFile(fs FS, name string) []byte {
	f, err := fs.Open(name)
	if err != nil {
		return nil
	}
	defer f.Close()
	data, _ := io.ReadAll(f)
	return data
}

func writeFile(t *testing.T, fs FS, name string, data []byte) {
	f, err := fs.Create(name)
	if err == nil {
		_, err = f.Write(data)
		f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzOpenFromDir feeds recovery a whole image with one file damaged: a
// span of bytes flipped and the tail cut, in the log, a manifest or a
// table file. With reseal, every checksum the damage broke is recomputed
// — the log's frames, a table file's sections and its manifest entry, the
// manifest's own — so that checksum-valid nonsense reaches the code that
// trusts decoded numbers. OpenFromDir must never panic or hang, and
// returns having left no goroutine behind, including when a restore fails
// while the log scanner runs. An image it does open must re-checkpoint to
// one that restores the same cells.
func FuzzOpenFromDir(f *testing.F) {
	base, err := fuzzImage()
	if err != nil {
		f.Fatal(err)
	}
	files := imageFiles(base, "data")
	for i, name := range files {
		f.Add(uint8(i), uint32(0), []byte{}, uint16(0), false)
		f.Add(uint8(i), uint32(len(readFile(base, name))/2), []byte{0x40}, uint16(0), true)
		f.Add(uint8(i), uint32(9), []byte{0xff, 0xff, 0xff}, uint16(0), true)
		f.Add(uint8(i), uint32(0), []byte{}, uint16(3), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, file uint8, off uint32, patch []byte, cut uint16, reseal bool) {
		img := base.Crash(true)
		name := files[int(file)%len(files)]
		data := readFile(img, name)
		if len(data) > 0 {
			at := int(off % uint32(len(data)))
			for i, b := range patch {
				if at+i < len(data) {
					data[at+i] ^= b
				}
			}
		}
		if int(cut) <= len(data) {
			data = data[:len(data)-int(cut)]
		}
		if reseal {
			resealFile(img, name, data)
		}
		writeFile(t, img, name, data)

		before := runtime.NumGoroutine()
		s, _, err := OpenFromDir(img, "data")
		if err == nil {
			reopened(t, s)
			s.Close()
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after recovery, %d before (open error: %v)", runtime.NumGoroutine(), before, err)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// reopened checkpoints a recovered system into a fresh image, restores
// that, and requires the same cells in every table.
func reopened(t *testing.T, s *System) {
	t.Helper()
	fs := wal.NewMemFS()
	if _, err := s.CheckpointDB(fs, "re"); err != nil {
		t.Fatalf("re-checkpoint of a recovered system: %v", err)
	}
	s2, _, err := OpenFromDir(fs, "re")
	if err != nil {
		t.Fatalf("restoring the re-checkpoint: %v", err)
	}
	defer s2.Close()
	for _, h := range s.db.Tables() {
		a := h.Table()
		b := s2.db.Handle(a.Schema().Name).Table()
		if a.Rows() != b.Rows() {
			t.Fatalf("%s: %d rows recovered, %d after re-checkpoint", a.Schema().Name, a.Rows(), b.Rows())
		}
		for r := int64(0); r < a.Rows(); r++ {
			for c := range a.Schema().Columns {
				if x, y := a.ReadActive(r, c), b.ReadActive(r, c); x != y {
					t.Fatalf("%s row %d col %d: %d recovered, %d after re-checkpoint", a.Schema().Name, r, c, x, y)
				}
			}
		}
	}
}

// resealFile recomputes the checksums damage to one file of an image broke,
// as far as the file's layout is still intact.
func resealFile(fs *wal.MemFS, name string, data []byte) {
	le := binary.LittleEndian
	switch {
	case strings.HasSuffix(name, "/"+walName):
		for p := 0; p+8 <= len(data); {
			n := int(le.Uint32(data[p:]))
			if n < 20 || n > len(data)-p-8 {
				return
			}
			le.PutUint32(data[p+4:], crc32.Checksum(data[p+8:p+8+n], wal.Castagnoli))
			p += 8 + n
		}
	case strings.HasSuffix(name, "/"+checkpoint.ManifestName):
		if n := len(data) - 4; n >= 0 {
			le.PutUint32(data[n:], crc32.Checksum(data[:n], wal.Castagnoli))
		}
	case strings.HasSuffix(name, ".ehcp"):
		resealTable(data)
		dir := name[:strings.LastIndexByte(name, '/')]
		man, err := checkpoint.ReadManifest(bytes.NewReader(readFile(fs, dir+"/"+checkpoint.ManifestName)))
		if err != nil {
			return
		}
		for i := range man.Tables {
			if dir+"/"+man.Tables[i].Name+".ehcp" == name {
				man.Tables[i].FileCRC = crc32.Checksum(data, wal.Castagnoli)
			}
		}
		var buf bytes.Buffer
		checkpoint.WriteManifest(&buf, man)
		if f, err := fs.Create(dir + "/" + checkpoint.ManifestName); err == nil {
			f.Write(buf.Bytes())
			f.Close()
		}
	}
}

// resealTable recomputes a table file's section checksums in place,
// walking its layout — magic and version, the header section, one section
// per column, one per String column's dictionary — as far as it is intact.
func resealTable(data []byte) {
	le := binary.LittleEndian
	p := 8
	if len(data) < p {
		return
	}
	take := func(n uint64) bool {
		if n > uint64(len(data)-p) {
			return false
		}
		p += int(n)
		return true
	}
	u32 := func() (uint64, bool) {
		if !take(4) {
			return 0, false
		}
		return uint64(le.Uint32(data[p-4:])), true
	}
	seal := func(from int) bool {
		if !take(4) {
			return false
		}
		le.PutUint32(data[p-4:], crc32.Checksum(data[from:p-4], wal.Castagnoli))
		return true
	}
	start := p
	n, ok := u32()
	if !ok || !take(n) {
		return
	}
	ncols, ok := u32()
	if !ok {
		return
	}
	var dicts uint64
	for c := uint64(0); c < ncols; c++ {
		n, ok := u32()
		if !ok || !take(n+1) {
			return
		}
		if columnar.Type(data[p-1]) == columnar.String {
			dicts++
		}
	}
	if !take(8) {
		return
	}
	rows := le.Uint64(data[p-8:])
	if !seal(start) || rows > uint64(len(data))/8 {
		return
	}
	for c := uint64(0); c < ncols; c++ {
		if start = p; !take(8*rows) || !seal(start) {
			return
		}
	}
	for d := uint64(0); d < dicts; d++ {
		start = p
		count, ok := u32()
		for ; ok && count > 0; count-- {
			var n uint64
			if n, ok = u32(); ok {
				ok = take(n)
			}
		}
		if !ok || !seal(start) {
			return
		}
	}
}
