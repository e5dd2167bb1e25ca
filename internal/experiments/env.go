// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each Figure* function returns structured rows; the
// chbench command renders them as text and bench_test.go wraps them in
// testing.B benchmarks; README "Reproduction harness" lists the entry
// points.
//
// Scale emulation: experiments load a laptop-sized database (Options.SF)
// and scale measured byte counts by EmulateSF/SF before they reach the
// cost model, so reported simulated times correspond to the paper's scale
// factors (300 for the sensitivity analysis, 30 for Figure 5). Injected
// transaction counts are scaled by SF/EmulateSF, which keeps the fresh
// fraction trajectory — the scheduler's input — aligned with the paper's
// 2-MTPS regime.
package experiments

import (
	"fmt"

	"elastichtap/internal/ch"
	"elastichtap/internal/core"
	"elastichtap/internal/olap"
)

// Options configure an experiment environment.
type Options struct {
	// SF is the actual loaded scale factor (keep small: 0.01-0.1).
	SF float64
	// EmulateSF is the scale factor whose timings the cost model reports.
	EmulateSF float64
	// Seed drives the deterministic generator and workloads.
	Seed int64
	// Sockets overrides the machine's socket count (Figure 1 uses 4).
	Sockets int
	// PaymentPct adds update-heavy Payment transactions to the mix.
	PaymentPct int
	// Alpha overrides the scheduler's ETL sensitivity (0 keeps default).
	Alpha float64
	// ElasticCores overrides the elastic core budget (0 keeps default).
	ElasticCores int
	// Items overrides the item-table cardinality. TPC-C fixes items at
	// 100k regardless of warehouses; tests shrink it for speed, but
	// experiments that depend on the update working-set saturating slowly
	// (Figure 5's adaptive trigger) need it large enough.
	Items int
}

func (o Options) withDefaults() Options {
	if o.SF == 0 {
		o.SF = 0.01
	}
	if o.EmulateSF == 0 {
		o.EmulateSF = 300
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Env is a loaded, primed HTAP system ready to run an experiment.
type Env struct {
	Opt Options
	Sys *core.System
	DB  *ch.DB
}

// NewEnv builds the system, loads CH at the requested scale, installs the
// transaction mix, and primes the OLAP replicas (freshness-rate 1).
func NewEnv(opt Options) (*Env, error) {
	opt = opt.withDefaults()
	cfg := core.DefaultSystemConfig()
	if opt.Sockets > 0 {
		cfg.Topology.Sockets = opt.Sockets
		cfg.Scheduler = core.DefaultConfig(cfg.Topology.Sockets, cfg.Topology.CoresPerSocket)
	}
	cfg.ByteScale = opt.EmulateSF / opt.SF
	if opt.Alpha > 0 {
		cfg.Scheduler.Alpha = opt.Alpha
	}
	if opt.ElasticCores > 0 {
		cfg.Scheduler.ElasticCores = opt.ElasticCores
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	sizing := ch.SizingForScale(opt.SF)
	if opt.Items > 0 {
		sizing.Items = opt.Items
	}
	db := ch.Load(sys.OLTPE, sizing, opt.Seed)
	sys.OLTPE.Workers().SetWorkload(ch.NewMix(db, opt.PaymentPct, opt.Seed))
	sys.PrimeReplicas()
	return &Env{Opt: opt, Sys: sys, DB: db}, nil
}

// Close releases the system's worker pools. Sweep drivers that build one
// Env per data point must call it, or each point leaks its parked OLAP
// pool goroutines for the life of the process.
func (e *Env) Close() { e.Sys.Close() }

// TxnScale converts emulated transaction counts into actually executed
// ones, preserving the fresh-fraction trajectory.
func (e *Env) TxnScale() float64 { return e.Opt.SF / e.Opt.EmulateSF }

// InjectFor executes the transactions that the modeled OLTP engine would
// commit during simSeconds at the given throughput, scaled to the loaded
// database size. It returns the number actually executed.
func (e *Env) InjectFor(simSeconds, tps float64) int {
	n := int(tps * simSeconds * e.TxnScale())
	if n > 0 {
		e.Sys.InjectTransactions(n)
	}
	return n
}

// Queries returns fresh instances of the analytical mix each sequence
// sweeps: the paper's Q1/Q6/Q19 trio plus the builder-compiled Q3, Q12
// and Q18 — payload joins, conditional aggregation and ordered top-k —
// so figures exercise every work class the cost model distinguishes.
func (e *Env) Queries() []olap.Query { return e.DB.QuerySet() }

// Q1, Q6, Q19 return single queries bound to this environment — the
// builder-compiled prepared statements stamped with default arguments,
// the same form QuerySet serves.
func (e *Env) Q1() olap.Query  { return e.DB.Stamped("Q1", ch.Q1Args(0)) }
func (e *Env) Q6() olap.Query  { return e.DB.Stamped("Q6", ch.Q6Args(0, 0, 0, 0)) }
func (e *Env) Q19() olap.Query { return e.DB.Stamped("Q19", ch.Q19Args(0, 0, 0, 0)) }

// setElasticCores rewrites the scheduler's elastic budget mid-experiment.
func (e *Env) setElasticCores(k int) error {
	cfg := e.Sys.Sched.Config()
	cfg.ElasticCores = k
	return e.Sys.Sched.SetConfig(cfg)
}

// allowTrading lowers the OLTP per-socket floor so sensitivity sweeps
// can trade up to maxCores cores.
func (e *Env) allowTrading(maxCores int) error {
	cfg := e.Sys.Sched.Config()
	for i := range cfg.OLTPCpuThres {
		cfg.OLTPCpuThres[i] = e.Sys.Cfg.Topology.CoresPerSocket - maxCores
	}
	return e.Sys.Sched.SetConfig(cfg)
}
