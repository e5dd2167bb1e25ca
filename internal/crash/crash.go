// Package crash is a randomized kill-point recovery harness: it drives a
// deterministic workload schedule (transaction batches, analytical
// queries, whole-database checkpoints) against a system running over a
// fault-injectable filesystem, kills the engine at a randomized point —
// mid-commit or mid-checkpoint via a byte budget that tears a write,
// mid-switch or mid-ETL via an exchange probe that panics — then restores
// from the surviving image and verifies the recovered system against a
// never-crashed twin: same commit count, same transaction clock, same
// per-table freshness, same query answers.
//
// Determinism is the load-bearing property. The schedule is derived from
// a seed, transactions run serially from a seeded mix, and the
// filesystem byte stream is identical between the measuring pass and the
// kill pass — so a byte budget chosen from the first pass lands at a
// known write in the second, and the twin can replay exactly the durable
// prefix the crashed run left behind.
package crash

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	elastichtap "elastichtap"
	"elastichtap/internal/ch"
	"elastichtap/internal/wal"
)

// KillPoint selects where the engine dies.
type KillPoint int

// Kill points. The byte-budget kills tear a durable write mid-frame; the
// probe kills panic inside the replica-data exchange.
const (
	// KillNone runs the schedule to completion and recovers from the
	// final image — the no-fault baseline.
	KillNone KillPoint = iota
	// KillMidCommit exhausts the write budget inside a transaction
	// batch, tearing a WAL frame.
	KillMidCommit
	// KillMidCheckpoint exhausts the write budget inside a checkpoint,
	// tearing a table file or the manifest.
	KillMidCheckpoint
	// KillMidSwitch panics at an instance switch.
	KillMidSwitch
	// KillMidETL panics between the delta-ETL's update and insert halves.
	KillMidETL
)

func (k KillPoint) String() string {
	switch k {
	case KillNone:
		return "none"
	case KillMidCommit:
		return "mid-commit"
	case KillMidCheckpoint:
		return "mid-checkpoint"
	case KillMidSwitch:
		return "mid-switch"
	case KillMidETL:
		return "mid-etl"
	}
	return fmt.Sprintf("KillPoint(%d)", int(k))
}

// killSentinel is the probe panic payload; anything else re-panics.
type killSentinel struct{}

type stepKind int

const (
	stepTxns stepKind = iota
	stepQuery
	stepCkpt
)

type step struct {
	kind  stepKind
	n     int               // stepTxns: batch size
	query int               // stepQuery: index into queryFns
	state elastichtap.State // stepQuery: forced execution state
}

// queryFns are the analytical queries a schedule draws from.
var queryFns = []func(*elastichtap.DB) elastichtap.Query{
	elastichtap.Q1, elastichtap.Q6, elastichtap.Q12, elastichtap.Q18,
}

// newSchedule derives a schedule from the seed: a fixed shape (so every
// kill point has somewhere to land — transaction batches for mid-commit,
// checkpoints for mid-checkpoint, S2 queries for mid-switch and mid-ETL)
// with randomized batch sizes and query choices.
func newSchedule(rng *rand.Rand) []step {
	txns := func() step { return step{kind: stepTxns, n: 20 + rng.Intn(40)} }
	query := func(st elastichtap.State) step {
		return step{kind: stepQuery, query: rng.Intn(len(queryFns)), state: st}
	}
	return []step{
		txns(),
		query(elastichtap.S2),
		txns(),
		{kind: stepCkpt},
		txns(),
		query(elastichtap.S2),
		txns(),
		{kind: stepCkpt},
		txns(),
		query(elastichtap.S3IS),
		txns(),
	}
}

const (
	dataDir  = "data"
	scale    = 0.005
	payPct   = 30
	loadSeed = 11
)

// runner is one system instance driving the schedule.
type runner struct {
	fs  *wal.MemFS
	sys *elastichtap.System
	db  *elastichtap.DB
	mix *ch.Mix

	// seqStep maps a completed checkpoint's sequence number to the
	// schedule step that took it; the bootstrap checkpoint maps to -1.
	seqStep map[uint64]int
}

// newRunner loads the database, attaches the WAL, and takes the
// bootstrap checkpoint — the durable floor every recovery can reach.
func newRunner(seed int64) (*runner, error) {
	r := &runner{fs: wal.NewMemFS(), seqStep: map[uint64]int{}}
	sys, err := elastichtap.New()
	if err != nil {
		return nil, err
	}
	r.sys = sys
	r.db = sys.LoadCH(scale, loadSeed)
	if err := sys.EnableWAL(r.fs, dataDir, elastichtap.SyncAlways, 0); err != nil {
		return nil, err
	}
	seq, err := sys.CheckpointDB(r.fs, dataDir)
	if err != nil {
		return nil, err
	}
	r.seqStep[seq] = -1
	r.mix = ch.NewMix(r.db, payPct, seed)
	return r, nil
}

func (r *runner) commits() uint64 { return r.sys.Core().OLTPE.Manager().Commits() }

func (r *runner) runTxn() error {
	_, err := r.sys.Core().OLTPE.Manager().RunWithRetry(3, r.mix.Next(0))
	return err
}

// runStep executes one schedule step. A returned error wrapping
// wal.ErrCrash means the write budget fired.
func (r *runner) runStep(ctx context.Context, i int, st step) error {
	switch st.kind {
	case stepTxns:
		for j := 0; j < st.n; j++ {
			if err := r.runTxn(); err != nil {
				return err
			}
		}
	case stepQuery:
		q := queryFns[st.query](r.db)
		if _, err := r.sys.QueryInStateContext(ctx, q, st.state); err != nil {
			return err
		}
	case stepCkpt:
		seq, err := r.sys.CheckpointDB(r.fs, dataDir)
		if err != nil {
			return err
		}
		r.seqStep[seq] = i
	}
	return nil
}

// runStepArmed runs a step with the kill armed: a probe panic or a
// budget-torn write reports crashed=true instead of an error.
func (r *runner) runStepArmed(ctx context.Context, i int, st step) (crashed bool, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(killSentinel); ok {
				crashed = true
				err = nil
				return
			}
			panic(rec)
		}
	}()
	err = r.runStep(ctx, i, st)
	if err != nil && errors.Is(err, wal.ErrCrash) {
		return true, nil
	}
	return false, err
}

// measure is the clean first pass: per-step filesystem write intervals
// and per-probe-point firing counts, both measured after the bootstrap
// checkpoint so budgets and countdowns target the schedule proper.
type measure struct {
	stepBytes  [][2]int64 // per step: [bytes before, bytes after]
	probeCount map[string]int
	totalTxns  int
}

func (h *Harness) measurePass(ctx context.Context, seed int64) (*measure, error) {
	r, err := newRunner(seed)
	if err != nil {
		return nil, err
	}
	defer r.sys.Close()
	m := &measure{probeCount: map[string]int{}}
	r.sys.Core().X.SetProbe(func(point, table string) { m.probeCount[point]++ })
	for i, st := range h.steps {
		m.stepBytes = append(m.stepBytes, [2]int64{r.fs.BytesWritten(), 0})
		if err := r.runStep(ctx, i, st); err != nil {
			return nil, fmt.Errorf("crash: clean pass step %d: %w", i, err)
		}
		m.stepBytes[i][1] = r.fs.BytesWritten()
		if st.kind == stepTxns {
			m.totalTxns += st.n
		}
	}
	return m, nil
}

// Harness is one seeded kill-and-recover scenario.
type Harness struct {
	Seed  int64
	Kill  KillPoint
	steps []step
	rng   *rand.Rand
}

// New builds the harness: the schedule and all later random choices
// derive from the seed.
//
//htap:api the package is a test harness; its kill-point tests drive it
func New(seed int64, kill KillPoint) *Harness {
	rng := rand.New(rand.NewSource(seed))
	return &Harness{Seed: seed, Kill: kill, steps: newSchedule(rng), rng: rng}
}

// Outcome is what one kill-and-recover run produced, for assertions.
type Outcome struct {
	// Crashed reports whether the kill fired (KillNone never crashes; a
	// byte budget landing on a frame boundary may fire a step later than
	// targeted, but always fires while writes remain).
	Crashed bool
	// CrashStep is the schedule step the kill fired in, -1 if none.
	CrashStep int
	// Info is the recovery's report.
	Info elastichtap.RecoveryInfo
	// RecoveredCommits and TwinCommits must agree.
	RecoveredCommits, TwinCommits uint64
}

// pickBudget chooses an absolute filesystem byte offset inside a step of
// the given kind — the kill pass crashes at the write covering it.
func (h *Harness) pickBudget(m *measure, kind stepKind) (int64, error) {
	var candidates []int
	for i, st := range h.steps {
		if st.kind == kind && m.stepBytes[i][1] > m.stepBytes[i][0] {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return 0, fmt.Errorf("crash: no writing step of kind %d to kill", kind)
	}
	i := candidates[h.rng.Intn(len(candidates))]
	lo, hi := m.stepBytes[i][0], m.stepBytes[i][1]
	return lo + 1 + h.rng.Int63n(hi-lo), nil
}

// Run executes the full protocol: measure, kill, recover, verify against
// the twin. It returns the outcome; err is a harness failure, while
// verification failures come from the caller comparing the outcome.
//
//htap:api the package is a test harness; its kill-point tests drive it
func (h *Harness) Run(ctx context.Context) (*Outcome, error) {
	m, err := h.measurePass(ctx, h.Seed)
	if err != nil {
		return nil, err
	}

	// Kill pass: identical run with the fault armed.
	r, err := newRunner(h.Seed)
	if err != nil {
		return nil, err
	}
	switch h.Kill {
	case KillMidCommit:
		budget, err := h.pickBudget(m, stepTxns)
		if err != nil {
			return nil, err
		}
		r.fs.CrashAfterWrite(budget - r.fs.BytesWritten())
	case KillMidCheckpoint:
		budget, err := h.pickBudget(m, stepCkpt)
		if err != nil {
			return nil, err
		}
		r.fs.CrashAfterWrite(budget - r.fs.BytesWritten())
	case KillMidSwitch, KillMidETL:
		point := "switch"
		if h.Kill == KillMidETL {
			point = "etl"
		}
		n := m.probeCount[point]
		if n == 0 {
			return nil, fmt.Errorf("crash: probe %q never fired in clean pass", point)
		}
		countdown := 1 + h.rng.Intn(n)
		r.sys.Core().X.SetProbe(func(p, table string) {
			if p == point {
				countdown--
				if countdown == 0 {
					panic(killSentinel{})
				}
			}
		})
	}

	out := &Outcome{CrashStep: -1}
	for i, st := range h.steps {
		crashed, err := r.runStepArmed(ctx, i, st)
		if err != nil {
			return nil, fmt.Errorf("crash: kill pass step %d: %w", i, err)
		}
		if crashed {
			out.Crashed = true
			out.CrashStep = i
			break
		}
	}
	// The crashed system is abandoned as a real crash would: its locks
	// and pools are in whatever state the kill left them. Only its
	// filesystem survives — including any torn tail.
	img := r.fs.Crash(true)

	sysR, info, err := elastichtap.OpenFromDir(img, dataDir)
	if err != nil {
		return nil, fmt.Errorf("crash: recovery after %v at step %d: %w", h.Kill, out.CrashStep, err)
	}
	defer sysR.Close()
	out.Info = info
	out.RecoveredCommits = info.Commits

	ckptStep, ok := r.seqStep[info.Seq]
	if !ok {
		return nil, fmt.Errorf("crash: recovery restored seq %d, which the kill pass never completed (torn checkpoint used)", info.Seq)
	}

	twin, err := h.twin(ctx, ckptStep, info.Commits)
	if err != nil {
		return nil, err
	}
	defer twin.sys.Close()
	out.TwinCommits = twin.commits()

	if err := h.verify(ctx, sysR, twin); err != nil {
		return nil, fmt.Errorf("crash: %v at step %d (seq %d, %d replayed): %w",
			h.Kill, out.CrashStep, info.Seq, info.Replayed, err)
	}
	return out, nil
}

// twin builds the never-crashed reference: it replays the schedule
// through the checkpoint step recovery restored from — queries and
// checkpoints included, so ETL state and staleness bits evolve exactly
// as they did when that manifest was cut — then transactions only, one
// at a time, until the commit counts match. Post-checkpoint queries are
// skipped because their ETL effects were not durable: recovery
// reconstructs replica state as of the checkpoint plus replayed writes.
func (h *Harness) twin(ctx context.Context, ckptStep int, commits uint64) (*runner, error) {
	tw, err := newRunner(h.Seed)
	if err != nil {
		return nil, err
	}
	for i, st := range h.steps {
		if i <= ckptStep {
			if err := tw.runStep(ctx, i, st); err != nil {
				return nil, fmt.Errorf("crash: twin step %d: %w", i, err)
			}
			continue
		}
		if st.kind != stepTxns {
			continue
		}
		for j := 0; j < st.n && tw.commits() < commits; j++ {
			if err := tw.runTxn(); err != nil {
				return nil, fmt.Errorf("crash: twin txn in step %d: %w", i, err)
			}
		}
		if tw.commits() >= commits {
			break
		}
	}
	if got := tw.commits(); got != commits {
		return nil, fmt.Errorf("crash: twin ran out of schedule at %d commits, recovery has %d", got, commits)
	}
	return tw, nil
}

// verify checks the recovered system's primary indexes against its
// tables, then compares it against the twin: transaction clock, per-table
// freshness (before any query disturbs it), then the full query set under
// a forced state.
func (h *Harness) verify(ctx context.Context, rec *elastichtap.System, twin *runner) error {
	if err := rec.DB().CheckIndexes(); err != nil {
		return fmt.Errorf("recovered indexes: %w", err)
	}
	mr := rec.Core().OLTPE.Manager()
	mt := twin.sys.Core().OLTPE.Manager()
	if mr.Commits() != mt.Commits() {
		return fmt.Errorf("commits: recovered %d, twin %d", mr.Commits(), mt.Commits())
	}
	if mr.Now() != mt.Now() {
		return fmt.Errorf("clock: recovered %d, twin %d", mr.Now(), mt.Now())
	}
	for _, ht := range twin.sys.Core().OLTPE.Tables() {
		name := ht.Table().Schema().Name
		hr := rec.Core().OLTPE.Table(name)
		if hr == nil {
			return fmt.Errorf("table %q missing after recovery", name)
		}
		fr := rec.Core().X.TableFreshness(hr)
		ft := twin.sys.Core().X.TableFreshness(ht)
		if !reflect.DeepEqual(fr, ft) {
			return fmt.Errorf("freshness of %q: recovered %+v, twin %+v", name, fr, ft)
		}
		if hr.Table().Rows() != ht.Table().Rows() {
			return fmt.Errorf("rows of %q: recovered %d, twin %d", name, hr.Table().Rows(), ht.Table().Rows())
		}
	}
	for qi, qf := range queryFns {
		qr, err := rec.QueryInStateContext(ctx, qf(rec.DB()), elastichtap.S2)
		if err != nil {
			return fmt.Errorf("query %d on recovered: %w", qi, err)
		}
		qt, err := twin.sys.QueryInStateContext(ctx, qf(twin.db), elastichtap.S2)
		if err != nil {
			return fmt.Errorf("query %d on twin: %w", qi, err)
		}
		if !reflect.DeepEqual(qr.Result.Rows, qt.Result.Rows) {
			return fmt.Errorf("query %d diverged:\nrecovered %v\ntwin      %v", qi, qr.Result.Rows, qt.Result.Rows)
		}
	}
	return nil
}
