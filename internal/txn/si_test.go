package txn_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
	"elastichtap/internal/rde"
	"elastichtap/internal/txn"
	"elastichtap/internal/wal"
)

// The snapshot-isolation oracle. Rows carry a balance that transfers move
// between two rows (the sum is conserved) and a counter pair that a
// single-row transaction bumps together (cnt+1, neg-1: cnt+neg is 0 in
// every committed version of a row). Snapshot readers check, inside one
// transaction, that the sum and the pairs hold, that reading everything a
// second time changes nothing, and that each counter lies between the
// increments known committed before the snapshot began and those started
// before it ended; at quiescence every row equals its initial value plus
// the deltas of the transactions that reported success.

const (
	siID = iota
	siBal
	siCnt
	siNeg
	siWidth
)

const (
	siInitial = 100
	siRows    = 8
)

// newSITable creates the oracle's table in an engine of its own, so that an
// exchange can switch it.
func newSITable(rows int) (*oltp.Engine, *oltp.TableHandle) {
	e := oltp.NewEngine()
	h := e.CreateTable(columnar.Schema{
		Name: "si",
		Columns: []columnar.ColumnDef{
			{Name: "id", Type: columnar.Int64},
			{Name: "bal", Type: columnar.Int64},
			{Name: "cnt", Type: columnar.Int64},
			{Name: "neg", Type: columnar.Int64},
		},
	}, int64(rows))
	rs := make([][]int64, rows)
	for i := range rs {
		rs[i] = []int64{int64(i), siInitial, 0, 0}
	}
	h.Table().AppendRows(rs, 0)
	return e, h
}

func add(d int64) func(int64) int64 { return func(v int64) int64 { return v + d } }

func TestSnapshotIsolationOracle(t *testing.T) {
	e, h := newSITable(siRows)
	runSIOracle(t, e.Manager(), h.Ref, func() bool { return true })
}

// TestSnapshotIsolationOracleAcrossSwitches holds the same history to the
// same oracle while the exchange switches the table and ETLs it in a loop:
// a transaction must find every committed value in whichever instance is
// active when it looks.
func TestSnapshotIsolationOracleAcrossSwitches(t *testing.T) {
	e, h := newSITable(siRows)
	x := rde.New(e, 0, 1)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				x.ETL(x.SwitchAndSync(e.Tables()))
			}
		}
	}()
	// The history runs on until the exchange has switched 10 times beside
	// it: at GOMAXPROCS=2 the exchange goroutine can starve beside the
	// writers for a whole fixed-length history.
	runSIOracle(t, e.Manager(), h.Ref, func() bool {
		switches, _, _ := x.Counters()
		return switches >= 10
	})
	close(stop)
	<-stopped
	if switches, _, _ := x.Counters(); switches < 10 {
		t.Fatalf("only %d switches ran beside the history", switches)
	}
}

// runSIOracle runs a history of transfers and counter increments beside
// snapshot readers and checks every snapshot and the quiesced end state.
// Each writer runs perW transactions, then more until enough reports true.
func runSIOracle(t *testing.T, m *txn.Manager, ref *txn.TableRef, enough func() bool) {
	const (
		rows    = siRows
		writers = 4
		readers = 3
		perW    = 300
		retries = 100_000
	)
	var started, committed [rows]atomic.Int64 // counter increments, per row
	var balDelta [rows]atomic.Int64           // committed transfer deltas, per row
	var writing sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(seed int64) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW || !enough(); i++ {
				a := rng.Int63n(rows)
				if rng.Intn(3) == 0 {
					started[a].Add(1)
					if _, err := m.RunWithRetry(retries, func(tx *txn.Txn) error {
						if err := tx.WriteFunc(ref, a, siCnt, add(1)); err != nil {
							return err
						}
						return tx.WriteFunc(ref, a, siNeg, add(-1))
					}); err != nil {
						t.Errorf("increment: %v", err)
						return
					}
					committed[a].Add(1)
					continue
				}
				b := (a + 1 + rng.Int63n(rows-1)) % rows
				amt := 1 + rng.Int63n(5)
				if _, err := m.RunWithRetry(retries, func(tx *txn.Txn) error {
					if err := tx.WriteFunc(ref, a, siBal, add(-amt)); err != nil {
						return err
					}
					return tx.WriteFunc(ref, b, siBal, add(amt))
				}); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
				balDelta[a].Add(-amt)
				balDelta[b].Add(amt)
			}
		}(int64(w + 1))
	}

	var reading sync.WaitGroup
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			var last [rows]int64 // counters of this reader's previous snapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				var atLeast [rows]int64
				for i := range atLeast {
					atLeast[i] = committed[i].Load()
				}
				var snap [2][rows][siWidth]int64
				if _, err := m.RunWithRetry(0, func(tx *txn.Txn) error {
					for pass := range snap {
						for row := int64(0); row < rows; row++ {
							for col := siBal; col < siWidth; col++ {
								v, ok := tx.Read(ref, row, col)
								if !ok {
									t.Errorf("row %d invisible to snapshot %d", row, tx.Begin())
								}
								snap[pass][row][col] = v
							}
						}
					}
					return nil
				}); err != nil {
					t.Errorf("snapshot reader: %v", err)
					return
				}
				if snap[0] != snap[1] {
					t.Errorf("non-repeatable read inside one snapshot:\n first  %v\n second %v", snap[0], snap[1])
					return
				}
				var sum int64
				for row, cells := range snap[0] {
					sum += cells[siBal]
					if cells[siCnt]+cells[siNeg] != 0 {
						t.Errorf("row %d torn: cnt %d neg %d", row, cells[siCnt], cells[siNeg])
						return
					}
					if cnt, hi := cells[siCnt], started[row].Load(); cnt < atLeast[row] || cnt > hi || cnt < last[row] {
						t.Errorf("row %d counter %d outside [%d committed before the snapshot, %d started by its end], previous snapshot saw %d",
							row, cnt, atLeast[row], hi, last[row])
						return
					}
					last[row] = cells[siCnt]
				}
				if sum != rows*siInitial {
					t.Errorf("snapshot balance sum %d, want %d: %v", sum, rows*siInitial, snap[0])
					return
				}
			}
		}()
	}

	writing.Wait()
	close(stop)
	reading.Wait()

	// Quiescence: no update lost, none applied twice.
	tx := m.Begin()
	defer tx.Abort()
	for row := int64(0); row < rows; row++ {
		bal, _ := tx.Read(ref, row, siBal)
		cnt, _ := tx.Read(ref, row, siCnt)
		neg, _ := tx.Read(ref, row, siNeg)
		if want := siInitial + balDelta[row].Load(); bal != want {
			t.Errorf("row %d balance %d, want %d", row, bal, want)
		}
		if want := committed[row].Load(); cnt != want || neg != -want {
			t.Errorf("row %d counters %d/%d, want %d/%d", row, cnt, neg, want, -want)
		}
	}
}

// gatedFS is a MemFS whose log file parks its first write until released:
// a committer stopped there has marked its locks, drawn its commit
// timestamp and applied nothing yet.
type gatedFS struct {
	*wal.MemFS
	entered, release chan struct{}
}

type gatedFile struct {
	wal.File
	fs   *gatedFS
	once sync.Once
}

func (fs *gatedFS) Append(name string) (wal.File, error) {
	f, err := fs.MemFS.Append(name)
	return &gatedFile{File: f, fs: fs}, err
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.once.Do(func() {
		close(f.fs.entered)
		<-f.fs.release
	})
	return f.File.Write(p)
}

// TestReaderBegunInsideACommitSeesAllOfIt: a reader that begins after a
// transfer drew its commit timestamp, while the transfer still holds its
// locks, has that commit inside its snapshot. It must not be answered from
// the pre-image (and then, once the locks are gone, from the new cells):
// it waits for the release and reads both rows as committed.
func TestReaderBegunInsideACommitSeesAllOfIt(t *testing.T) {
	e, h := newSITable(2)
	m, ref := e.Manager(), h.Ref
	fs := &gatedFS{MemFS: wal.NewMemFS(), entered: make(chan struct{}), release: make(chan struct{})}
	l, err := wal.Open(fs, "wal.log", wal.SyncNever, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(l)

	transferred := make(chan error, 1)
	go func() {
		_, err := m.RunWithRetry(0, func(tx *txn.Txn) error {
			if err := tx.WriteFunc(ref, 0, siBal, add(-10)); err != nil {
				return err
			}
			return tx.WriteFunc(ref, 1, siBal, add(10))
		})
		transferred <- err
	}()
	<-fs.entered

	reader := m.Begin()
	defer reader.Abort()
	first := make(chan int64, 1)
	go func() {
		v, _ := reader.Read(ref, 0, siBal)
		first <- v
	}()
	select {
	case v := <-first:
		t.Fatalf("read of a row whose commit is in flight answered %d before the commit finished", v)
	case <-time.After(20 * time.Millisecond): // long enough for a wrong answer to arrive
	}
	close(fs.release)
	if err := <-transferred; err != nil {
		t.Fatal(err)
	}
	from := <-first
	to, _ := reader.Read(ref, 1, siBal)
	again, _ := reader.Read(ref, 0, siBal)
	if from != siInitial-10 || to != siInitial+10 || again != from {
		t.Fatalf("snapshot %d read %d, %d, then %d again; the transfer committed inside it: want %d, %d, %d",
			reader.Begin(), from, to, again, siInitial-10, siInitial+10, siInitial-10)
	}
}
