package core

import (
	"testing"
	"testing/quick"

	"elastichtap/internal/rde"
)

// Property tests over the scheduler's pure logic: Algorithm 2's decision
// table and Algorithm 1's conservation/floor guarantees, for arbitrary
// inputs rather than the hand-picked cases in core_test.go.

func TestQuickDecideMatchesSpec(t *testing.T) {
	sys, _ := newTestSystem(t)
	f := func(nfq, nft uint32, alphaPct uint8, batch, elastic, colocate bool) bool {
		cfg := sys.Sched.Config()
		cfg.Alpha = float64(alphaPct%101) / 100
		cfg.Elasticity = elastic
		if colocate {
			cfg.Mode = ModeColocation
		} else {
			cfg.Mode = ModeHybrid
		}
		if err := sys.Sched.SetConfig(cfg); err != nil {
			return false
		}
		fresh := rde.Freshness{Nfq: int64(nfq), Nft: int64(nft)}
		got := sys.Sched.Decide(fresh, batch)

		// The specification, straight from Algorithm 2.
		var want State
		if float64(fresh.Nfq) < cfg.Alpha*float64(fresh.Nft) && !batch {
			switch {
			case !elastic:
				want = S3IS
			case !colocate:
				want = S3NI
			default:
				want = S1
			}
		} else {
			want = S2
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMigrationsConserveAndFloor(t *testing.T) {
	sys, _ := newTestSystem(t)
	total := sys.Cfg.Topology.Sockets * sys.Cfg.Topology.CoresPerSocket
	states := []State{S1, S2, S3IS, S3NI}
	f := func(seq []uint8, elastic uint8, floor uint8) bool {
		cfg := sys.Sched.Config()
		cfg.ElasticCores = int(elastic % 15)
		fl := int(floor % 15)
		for i := range cfg.OLTPCpuThres {
			cfg.OLTPCpuThres[i] = fl
		}
		if err := sys.Sched.SetConfig(cfg); err != nil {
			return false
		}
		for _, b := range seq {
			st := states[int(b)%len(states)]
			sys.Sched.MigrateTo(st)
			_, oltpP, olapP := sys.Sched.Placements()
			olap := olapP.Total()
			if oltpP.Total()+olap != total {
				return false
			}
			// In co-located/lending states the per-socket floor holds.
			if st == S1 || st == S3NI {
				if oltpP.On(0) < fl {
					return false
				}
			}
			// The OLTP engine always keeps at least its floor or the whole
			// socket; the OLAP engine never ends up with zero cores.
			if olap == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFreshnessNeverNegative(t *testing.T) {
	sys, db := newTestSystem(t)
	sys.PrimeReplicas()
	f := func(txns uint8, doETL bool) bool {
		sys.InjectTransactions(int(txns % 16))
		fresh := sys.X.MeasureFreshness(sys.OLTPE.Tables(), "orderline", 3)
		if fresh.Nfq < 0 || fresh.Nft < 0 || fresh.Nfq > fresh.Nft {
			return false
		}
		if fresh.Rate < 0 || fresh.Rate > 1 {
			return false
		}
		if doETL {
			set := sys.X.SwitchAndSync(sys.OLTPE.Tables())
			sys.X.ETL(set)
			after := sys.X.MeasureFreshness(sys.OLTPE.Tables(), "orderline", 3)
			// ETL can only reduce outstanding fresh data.
			if after.Nft > fresh.Nft {
				return false
			}
		}
		_ = db
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
