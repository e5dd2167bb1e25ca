package main

import (
	"context"
	"fmt"
	"os"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the driver that gates this benchmark computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// noiseTest runs the selected workloads n times, each repetition with the
// next seed, and prints per workload and end-to-end metric the median, the
// quartiles, their distance as a share of the median (the spread the
// driver gates) and (max-min)/median. The table is markdown on stdout;
// bench/NOISE.md is a committed copy. With check set, a quartile spread
// above the metric's bound makes the exit code 1.
func noiseTest(ctx context.Context, selected []spec, cfg config, n int, check bool) int {
	exit := 0
	fmt.Printf("| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, sp := range selected {
		samples := map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			res, err := runEndToEnd(ctx, sp, c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			if !res.correct() {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d operations failed\n", sp.name, c.seed, res.failed, res.attempted)
				exit = 1
			}
			for k, v := range res.metrics {
				samples[k] = append(samples[k], v)
			}
		}
		for _, d := range endToEnd {
			fmt.Fprintf(os.Stderr, "%s %s %.5g\n", sp.name, d.name, samples[d.name])
			xs := sortedCopy(samples[d.name])
			med := median(xs)
			q1, q3 := quartiles(xs)
			iqr, rng := ratio(q3-q1, med), ratio(xs[len(xs)-1]-xs[0], med)
			mark := ""
			if iqr > d.bound {
				mark = " **over**"
				if check {
					exit = 1
				}
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.4g | %.4f%s | %.4f | %.2f |\n",
				sp.name, d.name, d.unit, med, q1, q3, iqr, mark, rng, d.bound)
		}
	}
	return exit
}
