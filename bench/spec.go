package main

import (
	"math/rand"

	"elastichtap/internal/ch"
	"elastichtap/internal/ch/golden"
	"elastichtap/internal/olap"
	"elastichtap/query"
)

// queryClass is one CH-benCHmark query the schedule can issue: its
// parameterized plan (bound once at set-up), and a generator that draws a
// round's arguments together with the hand-coded oracle that must produce
// the identical answer. Argument ranges are narrow on purpose: they vary
// the stamped literals (so the prepared-statement cache never short-cuts
// a round) without moving a class's selectivity enough to blur its median.
type queryClass struct {
	name string
	plan func() *query.Plan
	gen  func(rng *rand.Rand, db *ch.DB) (query.Args, olap.Query)
}

// yearAgo draws a cutoff in the first two months of the loaded year, so
// date filters keep 85-100 % of the fact table (the paper evaluates the
// worst case, 100 % date selectivity, §5.1).
func yearAgo(rng *rand.Rand) int64 { return ch.LoadDay - 365 + rng.Int63n(60) }

var classes = map[string]queryClass{
	"Q1": {"Q1", ch.Q1PlanParam, func(rng *rand.Rand, db *ch.DB) (query.Args, olap.Query) {
		d := yearAgo(rng)
		return ch.Q1Args(d), &golden.Q1{DB: db, MinDeliveryD: d}
	}},
	"Q2": {"Q2", ch.Q2PlanParam, func(rng *rand.Rand, db *ch.DB) (query.Args, olap.Query) {
		lo := 10 + rng.Int63n(10)
		return ch.Q2Args(lo, lo+30), &golden.Q2{DB: db, QtyLo: lo, QtyHi: lo + 30}
	}},
	"Q3": {"Q3", ch.Q3PlanParam, func(_ *rand.Rand, db *ch.DB) (query.Args, olap.Query) {
		return ch.Q3Args(0), &golden.Q3{DB: db}
	}},
	"Q5": {"Q5", ch.Q5PlanParam, func(rng *rand.Rand, db *ch.DB) (query.Args, olap.Query) {
		p := float64(40 + rng.Intn(20))
		return ch.Q5Args(p), &golden.Q5{DB: db, MinPrice: p}
	}},
	"Q6": {"Q6", ch.Q6PlanParam, func(rng *rand.Rand, db *ch.DB) (query.Args, olap.Query) {
		lo := 1 + rng.Int63n(3)
		hi := lo + 4 + rng.Int63n(3)
		return ch.Q6Args(0, 0, lo, hi), &golden.Q6{DB: db, QtyLo: lo, QtyHi: hi}
	}},
	"Q7": {"Q7", ch.Q7PlanParam, func(rng *rand.Rand, db *ch.DB) (query.Args, olap.Query) {
		d := yearAgo(rng)
		return ch.Q7Args(d), &golden.Q7{DB: db, Since: d}
	}},
	"Q12": {"Q12", ch.Q12PlanParam, func(rng *rand.Rand, db *ch.DB) (query.Args, olap.Query) {
		d := yearAgo(rng)
		return ch.Q12Args(d), &golden.Q12{DB: db, DeliveredSince: d}
	}},
	"Q18": {"Q18", ch.Q18PlanParam, func(rng *rand.Rand, db *ch.DB) (query.Args, olap.Query) {
		r := float64(200 + rng.Intn(100))
		return ch.Q18Args(r), &golden.Q18{DB: db, MinRevenue: r}
	}},
	"Q19": {"Q19", ch.Q19PlanParam, func(rng *rand.Rand, db *ch.DB) (query.Args, olap.Query) {
		ql := 1 + rng.Int63n(3)
		pl := float64(1 + rng.Intn(20))
		return ch.Q19Args(ql, ql+5, pl, pl+60),
			&golden.Q19{DB: db, QtyLo: ql, QtyHi: ql + 5, PriceLo: pl, PriceHi: pl + 60}
	}},
}

// spec is one workload: a closed loop of rounds, each `txns` transactions
// at `paymentPct` percent Payment (the rest NewOrder) followed by one
// query, the classes taken round-robin. Work is fixed by the schedule, not
// by the clock: roundsPerSec only converts -seconds into a round count,
// calibrated so the timed section takes about that long on the 2-core
// reference sandbox at SF 0.1.
type spec struct {
	name         string
	why          string
	paymentPct   int
	txns         int
	classes      []string
	roundsPerSec float64
	// wal attaches a commit log before the schedule and checkpoints once
	// more half-way through it, so recovery replays a log suffix.
	wal bool
}

var specs = []spec{
	{
		name: "fresh-scan",
		why: "the paper's 5.3 sequence: NewOrder-heavy rounds more than double the fact table, so rde " +
			"switch/sync/ETL/split access and core's S3<->S2 decisions carry the scan queries",
		paymentPct: 40, txns: 600, classes: []string{"Q1", "Q6", "Q19"}, roundsPerSec: 29,
	},
	{
		name: "join-report",
		why: "few transactions, join-heavy reports: query bind/build/fused kernels, olap merge and sort " +
			"and index do the work while rde and txn do almost none",
		paymentPct: 50, txns: 300, classes: []string{"Q2", "Q3", "Q5", "Q7", "Q12", "Q18"}, roundsPerSec: 21,
	},
	{
		name: "payment-sat",
		why: "90% Payment: in-place updates instead of appends, so sync copies dirty rows, indexes " +
			"rebuild, split access is refused and txn/cuckoo dominate",
		paymentPct: 90, txns: 5000, classes: []string{"Q6", "Q2", "Q3", "Q18"}, roundsPerSec: 10,
	},
	{
		name: "durable-recover",
		why: "commit WAL on, a checkpoint mid-run, then recovery restores an image and replays the " +
			"log suffix; the only workload where wal appends and replay happen",
		paymentPct: 50, txns: 1000, classes: []string{"Q6", "Q12"}, roundsPerSec: 14.5, wal: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
