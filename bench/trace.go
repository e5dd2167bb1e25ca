package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"elastichtap/internal/core"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
	"elastichtap/internal/rde"
	"elastichtap/internal/workload"
)

// span is one timed call into a layer, recorded from this package: name
// ("<layer>.<call>"), start and end relative to the trace's origin, the
// span that caused it (0 for a root) and the round whose spans share an
// identifier. Counters carry the work done at the same boundary.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Round    int              `json:"round"`
	Name     string           `json:"name"`
	Start    int64            `json:"start_ns"`
	End      int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the package a span is charged to: the prefix of its name.
func (s span) layer() string { return s.Name[:strings.IndexByte(s.Name, '.')] }

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	round  int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Round: t.round, Name: name,
		Start: int64(time.Since(t.origin)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.origin)) }

func (t *tracer) count(id int, key string, v int64) {
	s := &t.spans[id-1]
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	s.Counters[key] += v
}

// tracedExec replaces RunWithRetry and QueryContext with a driver that
// makes the same calls core.System.RunQueryContext makes, in the same
// order, through the System's exported fields, with a span around each.
// It owns no policy: the state comes from Sched.Decide, the access method
// from the same rule chooseMethod applies. Because the schedule is fixed
// work, the pass it drives must reproduce the facade pass's states, methods
// and result bits for the same rounds — runTraced fails the run otherwise.
type tracedExec struct {
	sys *core.System
	tr  *tracer

	phase            int
	bodyNS, commitNS int64
}

func (x *tracedExec) beginTxns(round int) {
	x.tr.round = round
	x.phase = x.tr.begin("txn.phase", 0)
	x.bodyNS, x.commitNS = 0, 0
}

func (x *tracedExec) endTxns(n int) {
	x.tr.end(x.phase)
	x.tr.count(x.phase, "txns", int64(n))
	x.tr.count(x.phase, "body_ns", x.bodyNS)
	x.tr.count(x.phase, "commit_ns", x.commitNS)
}

// txn is Begin → body → Commit with the two halves timed. There is one
// client, so a conflict cannot happen; one would be reported as a failed
// operation rather than retried.
func (x *tracedExec) txn(body oltp.TxnFunc) (int, error) {
	t0 := time.Now()
	t := x.sys.OLTPE.Manager().Begin()
	err := body(t)
	t1 := time.Now()
	if err == nil {
		err = t.Commit()
	}
	if err != nil {
		t.Abort()
		return 0, err
	}
	x.bodyNS += int64(t1.Sub(t0))
	x.commitNS += int64(time.Since(t1))
	return 0, nil
}

func (x *tracedExec) query(ctx context.Context, q olap.Query) (outcome, error) {
	s, tr := x.sys, x.tr
	var out outcome
	root := tr.begin("core.query", 0)
	defer tr.end(root)

	tenant := workload.TenantFrom(ctx)
	sp := tr.begin("workload.admit", root)
	grant, err := s.WM.Admit(ctx, tenant)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	tables := s.OLTPE.Tables()

	// Secondary indexes are brought up to date here, under their own
	// span: the refreshes rde performs inside SwitchAndSync and ETL then
	// find nothing to do, which moves the index layer's time out of rde's
	// spans without changing what any index holds.
	sp = tr.begin("index.refresh", root)
	for _, h := range tables {
		if h.Sec != nil {
			h.Sec.Refresh()
		}
	}
	tr.end(sp)

	sp = tr.begin("rde.switch_sync", root)
	set := s.X.SwitchAndSync(tables)
	tr.end(sp)
	tr.count(sp, "synced_rows", set.CopiedRows)
	snap := set.Snap(q.FactTable())
	if snap == nil {
		grant.Release(0)
		return out, fmt.Errorf("no snapshot for fact table %q", q.FactTable())
	}

	sp = tr.begin("rde.freshness", root)
	fresh := s.X.MeasureFreshness(tables, q.FactTable(), len(q.Columns()))
	tr.end(sp)

	sp = tr.begin("core.decide", root)
	out.state = s.Sched.Decide(fresh, false)
	tr.end(sp)
	sp = tr.begin("core.migrate", root)
	s.Sched.MigrateTo(out.state)
	tr.end(sp)

	if out.state == core.S2 {
		sp = tr.begin("rde.etl", root)
		etl := s.X.ETL(set)
		tr.end(sp)
		tr.count(sp, "bytes", etl.Bytes)
		out.etl = etl.Bytes
	}

	switch {
	case out.state == core.S2:
		out.method = rde.ReadReplica
	case out.state != core.S1 && s.Sched.Config().SplitAccess && fresh.QueryUpdatedRows == 0:
		out.method = rde.ReadSplit
	default:
		out.method = rde.ReadSnapshot
	}
	sp = tr.begin("rde.source", root)
	src := s.X.SourceFor(out.method, snap)
	release := s.X.BeginScan(q.FactTable())
	tr.end(sp)

	sp = tr.begin("olap.exec", root)
	out.result, out.stats, err = s.OLAPE.ExecuteTenantContext(ctx, q, src,
		olap.TenantInfo{Name: tenant, Weight: s.WM.Weight(tenant)})
	tr.end(sp)
	release()
	var scanned int64
	for _, b := range out.stats.BytesAt {
		scanned += b
	}
	tr.count(sp, "bytes", scanned)

	sp = tr.begin("workload.release", root)
	if err != nil {
		grant.Release(0)
	} else {
		grant.Release(scanned)
	}
	tr.end(sp)
	return out, err
}

// layerSelf sums self time per layer: a span's duration minus the part its
// children cover (children of one parent never overlap here — there is one
// driver goroutine).
func (t *tracer) layerSelf() map[string]int64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.dur()
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		self[s.layer()] += s.dur() - child[s.ID]
	}
	return self
}

// total sums the durations of every span with the given name, and the
// named counter over them.
func (t *tracer) total(name, counter string) (ns, count int64) {
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.dur()
			count += s.Counters[counter]
		}
	}
	return ns, count
}

// admitNS is submit → execution start, summed over queries: each
// olap.exec span's start minus its root's start.
func (t *tracer) admitNS() (ns int64) {
	for _, s := range t.spans {
		if s.Name == "olap.exec" {
			ns += s.Start - t.spans[s.Parent-1].Start
		}
	}
	return ns
}

// write stores the trace next to the run's other scratch output.
func (t *tracer) write(path, workload string, seed int64, self map[string]int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		SelfNS   map[string]int64 `json:"layer_self_ns"`
		Spans    []span           `json:"spans"`
	}{workload, seed, self, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
