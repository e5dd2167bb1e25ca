package core

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"elastichtap/internal/topology"
)

var allStates = []State{S1, S2, S3IS, S3NI}

func noPools(topology.Placement) {}

// gridConfig is the scheduler configuration of one golden-table case: the
// same floor on every socket.
func gridConfig(topo topology.Config, elastic, floor, sockThres int) Config {
	cfg := DefaultConfig(topo.Sockets, topo.CoresPerSocket)
	cfg.ElasticCores, cfg.OLTPSockThres = elastic, sockThres
	for i := range cfg.OLTPCpuThres {
		cfg.OLTPCpuThres[i] = floor
	}
	return cfg
}

func counts(p topology.Placement) string {
	return strings.Trim(strings.ReplaceAll(fmt.Sprint(p.PerSocket), " ", ","), "[]")
}

// TestLayoutMatchesAlgorithm1 holds the pure layout to the table recorded
// from the per-core ledger it replaced (testdata/layout_golden.txt, engines
// homed on sockets 0 and 1), and to what the ledger's tests checked core by
// core: no socket over-committed, the OLTP floor respected, S3-IS laid out
// as S2, and a result that does not depend on the state migrated from.
func TestLayoutMatchesAlgorithm1(t *testing.T) {
	f, err := os.Open("testdata/layout_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byName := map[string]State{}
	for _, st := range allStates {
		byName[st.String()] = st
	}
	cases := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		topo := topology.DefaultConfig()
		var elastic, floor, sockThres int
		var name, wantOLTP, wantOLAP string
		if _, err := fmt.Sscan(line, &topo.Sockets, &topo.CoresPerSocket, &elastic, &floor, &sockThres, &name, &wantOLTP, &wantOLAP); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		st, ok := byName[name]
		if !ok {
			t.Fatalf("%q: unknown state", line)
		}
		cases++
		cfg := gridConfig(topo, elastic, floor, sockThres)
		oltp, olap := layout(st, cfg, topo, 0, 1)
		if counts(oltp) != wantOLTP || counts(olap) != wantOLAP {
			t.Errorf("%q: layout gave oltp=%s olap=%s", line, counts(oltp), counts(olap))
			continue
		}
		for s := 0; s < topo.Sockets; s++ {
			if oltp.On(s) < 0 || olap.On(s) < 0 || oltp.On(s)+olap.On(s) > topo.CoresPerSocket {
				t.Errorf("%q: socket %d holds oltp=%d olap=%d of %d cores", line, s, oltp.On(s), olap.On(s), topo.CoresPerSocket)
			}
		}
		switch st {
		case S1, S3NI:
			if oltp.On(0) < min(floor, topo.CoresPerSocket) {
				t.Errorf("%q: OLTP below its floor", line)
			}
		case S3IS:
			o2, a2 := layout(S2, cfg, topo, 0, 1)
			if !oltp.Equal(o2) || !olap.Equal(a2) {
				t.Errorf("%q: S3-IS is not S2's layout", line)
			}
		}
		for _, prev := range allStates {
			s, err := NewScheduler(cfg, topo, 0, 1, noPools)
			if err != nil {
				t.Fatal(err)
			}
			s.MigrateTo(prev)
			s.MigrateTo(st)
			got, o, a := s.Placements()
			if got != st || !o.Equal(oltp) || !a.Equal(olap) {
				t.Errorf("%q: reached from %v as %v oltp=%s olap=%s", line, prev, got, counts(o), counts(a))
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := 3 * 5 * 3 * 3 * len(allStates); cases != want {
		t.Fatalf("golden table has %d cases, want %d", cases, want)
	}
}

// TestUnplaceableEnginesRejectedAtNew: home sockets the layout could not
// index are refused when the system is built, which leaves MigrateTo with
// no failing case — every state of every accepted configuration lays out,
// and what the OLAP pool is handed is what Placements reports.
func TestUnplaceableEnginesRejectedAtNew(t *testing.T) {
	for _, c := range []struct {
		name               string
		sockets, oltp, olp int
	}{
		{"one socket", 1, 0, 1},
		{"negative OLTP socket", 2, -1, 1},
		{"OLAP socket past the machine", 2, 0, 2},
		{"shared home socket", 2, 1, 1},
	} {
		cfg := DefaultSystemConfig()
		cfg.Topology.Sockets, cfg.OLTPSocket, cfg.OLAPSocket = c.sockets, c.oltp, c.olp
		if sys, err := NewSystem(cfg); err == nil {
			sys.Close()
			t.Errorf("%s: NewSystem accepted it", c.name)
		}
	}

	for _, homes := range [][3]int{{2, 0, 1}, {2, 1, 0}, {3, 2, 0}, {4, 1, 3}} {
		for _, cores := range []int{1, 2, 14} {
			for _, elastic := range []int{0, 1, cores, cores + 6} {
				for _, floor := range []int{-3, 0, cores / 2, cores, cores + 6} {
					for _, sockThres := range []int{0, 1, homes[0], homes[0] + 2} {
						topo := topology.DefaultConfig()
						topo.Sockets, topo.CoresPerSocket = homes[0], cores
						var gotOLAP topology.Placement
						s, err := NewScheduler(gridConfig(topo, elastic, floor, sockThres), topo, homes[1], homes[2],
							func(olap topology.Placement) { gotOLAP = olap })
						if err != nil {
							t.Fatal(err)
						}
						for _, st := range allStates {
							s.MigrateTo(st)
							_, oltp, olap := s.Placements()
							if !olap.Equal(gotOLAP) {
								t.Fatalf("%v on %v: OLAP pool was handed %v, scheduler holds %v", st, homes, gotOLAP, olap)
							}
							for sock := 0; sock < topo.Sockets; sock++ {
								if oltp.On(sock) < 0 || olap.On(sock) < 0 || oltp.On(sock)+olap.On(sock) > cores {
									t.Fatalf("%v on %v elastic=%d floor=%d: socket %d holds %d+%d of %d cores",
										st, homes, elastic, floor, sock, oltp.On(sock), olap.On(sock), cores)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestMetricsPlacementIsOneCut: a snapshot's state and core counts come
// from one migration, never the state of one and the cores of the next.
func TestMetricsPlacementIsOneCut(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sys.Sched.MigrateTo(S3NI)
			sys.Sched.MigrateTo(S2)
		}
	}()
	for i := 0; i < 20000; i++ {
		m := sys.Metrics()
		got := fmt.Sprintf("%s oltp=%d olap=%d", m.State, m.OLTPCores, m.OLAPCores)
		if got != "S2 oltp=14 olap=14" && got != "S3-NI oltp=10 olap=18" {
			t.Errorf("read %d: %s is a layout no migration produced", i, got)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestConfigIsTheCallersCopy: neither Config nor SetConfig shares the
// OLTPCpuThres backing array with the caller, so a caller editing its copy
// (as the experiment drivers do before SetConfig) cannot write thresholds a
// concurrent migration is reading. Run under -race.
func TestConfigIsTheCallersCopy(t *testing.T) {
	topo := topology.DefaultConfig()
	s, err := NewScheduler(DefaultConfig(topo.Sockets, topo.CoresPerSocket), topo, 0, 1, noPools)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(s.Config().OLTPCpuThres)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.MigrateTo(S1)
			s.MigrateTo(S3NI)
		}
	}()
	for i := 0; i < 2000; i++ {
		cfg := s.Config()
		cfg.OLTPCpuThres[0] = i % 8 // the caller's copy, not yet the scheduler's
		if got := s.Config().OLTPCpuThres; !slices.Equal(got, want) {
			t.Fatalf("writing a returned Config changed the scheduler's thresholds to %v", got)
		}
		if err := s.SetConfig(cfg); err != nil {
			t.Fatal(err)
		}
		want = slices.Clone(cfg.OLTPCpuThres)
		cfg.OLTPCpuThres[0] = 99 // after SetConfig the slice is the caller's again
		if got := s.Config().OLTPCpuThres; !slices.Equal(got, want) {
			t.Fatalf("writing a Config after SetConfig changed the scheduler's thresholds to %v", got)
		}
	}
	close(stop)
	wg.Wait()
}
