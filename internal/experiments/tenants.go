package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"elastichtap/internal/ch"
	"elastichtap/internal/core"
	"elastichtap/internal/olap"
	"elastichtap/internal/workload"
)

// TenantRow summarizes one tenant of the multi-tenant serving scenario:
// its share of dispatched morsels against its configured weight share,
// and the wall-clock latency tail its queries observed.
type TenantRow struct {
	Tenant      string
	Weight      int
	Class       string // traffic class: the query this tenant submits
	Submitted   int
	Completed   int
	Rejected    int // ErrOverloaded admissions (quota/backpressure)
	P50Ms       float64
	P99Ms       float64
	P999Ms      float64
	MorselShare float64 // fraction of all morsels dispatched to this tenant
	WeightShare float64 // fraction of total weight among the weighted tenants
}

// tenantClass describes one traffic class of the scenario.
type tenantClass struct {
	name   string
	weight int
	class  string
	cfg    workload.Config
}

// MultiTenant drives the workload manager's serving scenario: an
// open-loop arrival process over Zipf-distributed tenants — a heavy
// ad-hoc tenant, a mid-weight dashboard tenant, a background ETL tenant
// (weights 4:2:1), and a zero-quota tenant whose every arrival must be
// rejected with ErrOverloaded rather than queued. Arrivals do not wait
// for completions (open loop): the backlog is what forces the DRR
// dispatcher to arbitrate, so under contention the per-tenant morsel
// shares should track the 4:2:1 weight shares.
func MultiTenant(opt Options, queries int) ([]TenantRow, error) {
	if queries <= 0 {
		queries = 240
	}
	env, err := NewEnv(opt)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	env.InjectFor(5, env.Sys.OLTPThroughputNow())

	classes := []tenantClass{
		{name: "adhoc", weight: 4, class: "Q6",
			cfg: workload.Config{Weight: 4, MaxConcurrent: 8, MaxQueueDepth: workload.Unlimited}},
		{name: "dashboard", weight: 2, class: "Q1",
			cfg: workload.Config{Weight: 2, MaxConcurrent: 8, MaxQueueDepth: workload.Unlimited}},
		{name: "etl", weight: 1, class: "Q18",
			cfg: workload.Config{Weight: 1, MaxConcurrent: 8, MaxQueueDepth: workload.Unlimited}},
		{name: "throttled", weight: 1, class: "Q6",
			cfg: workload.Config{Weight: 1, MaxConcurrent: 0}}, // zero quota: every arrival rejected
	}
	for _, tc := range classes {
		if err := env.Sys.WM.Register(tc.name, tc.cfg); err != nil {
			return nil, err
		}
	}
	q18 := env.DB.Stamped("Q18", ch.Q18Args(0))
	queryFor := map[string]func() olap.Query{
		"Q6":  env.Q6,
		"Q1":  env.Q1,
		"Q18": func() olap.Query { return q18 },
	}

	// Zipf over the three weighted tenants plus the throttled one: the
	// ad-hoc tenant dominates arrivals, the throttled tenant trickles.
	rng := rand.New(rand.NewSource(env.Opt.Seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(classes)-1))

	type outcome struct {
		tenant   string
		ms       float64
		rejected bool
		err      error
	}
	results := make(chan outcome, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		tc := classes[zipf.Uint64()]
		q := queryFor[tc.class]()
		ctx := workload.WithTenant(context.Background(), tc.name)
		wg.Add(1)
		// Open loop: the submitter never waits for completions; every
		// arrival is in flight at once and the queues absorb the burst.
		go func() {
			defer wg.Done()
			start := time.Now()
			_, _, err := env.Sys.RunQueryContext(ctx, q, core.QueryOptions{}, nil)
			o := outcome{tenant: tc.name, ms: float64(time.Since(start)) / 1e6}
			switch {
			case errors.Is(err, workload.ErrOverloaded):
				o.rejected = true
			case err != nil:
				o.err = err
			}
			results <- o
		}()
	}
	wg.Wait()
	close(results)

	lat := map[string][]float64{}
	submitted := map[string]int{}
	rejected := map[string]int{}
	for o := range results {
		if o.err != nil {
			return nil, fmt.Errorf("experiments: tenant %s: %w", o.tenant, o.err)
		}
		submitted[o.tenant]++
		if o.rejected {
			rejected[o.tenant]++
			continue
		}
		lat[o.tenant] = append(lat[o.tenant], o.ms)
	}

	dispatch := env.Sys.OLAPE.TenantDispatch()
	var totalMorsels, totalWeight int64
	for _, m := range dispatch {
		totalMorsels += m
	}
	for _, tc := range classes {
		if tc.cfg.MaxConcurrent != 0 {
			totalWeight += int64(tc.weight)
		}
	}
	var rows []TenantRow
	for _, tc := range classes {
		ls := lat[tc.name]
		sort.Float64s(ls)
		row := TenantRow{
			Tenant:    tc.name,
			Weight:    tc.weight,
			Class:     tc.class,
			Submitted: submitted[tc.name],
			Completed: len(ls),
			Rejected:  rejected[tc.name],
			P50Ms:     percentile(ls, 0.50),
			P99Ms:     percentile(ls, 0.99),
			P999Ms:    percentile(ls, 0.999),
		}
		if totalMorsels > 0 {
			row.MorselShare = float64(dispatch[tc.name]) / float64(totalMorsels)
		}
		if tc.cfg.MaxConcurrent != 0 && totalWeight > 0 {
			row.WeightShare = float64(tc.weight) / float64(totalWeight)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// percentile reads the p-quantile from an ascending sample set by the
// nearest-rank method; 0 for empty samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
