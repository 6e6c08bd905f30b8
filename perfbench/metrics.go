package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"extremalcq/internal/engine"
	"extremalcq/internal/store"
)

// quantile returns the q-quantile of xs by nearest rank. It refuses
// when fewer than ten samples lie beyond the quantile, so p99 needs at
// least 1000 samples and p90 at least 100.
func quantile(xs []float64, q float64) (float64, error) {
	// The tolerance keeps q·n = 90.00000000000001 at rank 90.
	rank := max(int(math.Ceil(q*float64(len(xs))-1e-9)), 1)
	if len(xs)-rank < 10 {
		return 0, fmt.Errorf("p%g needs ten samples beyond it, have %d samples", 100*q, len(xs))
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the middle two), 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// latencies are the send → end-of-answer times in ms of the phase's
// single-job requests (batches are left out, so serve-2c's percentiles
// cover /v1/jobs only). A failed request counts as slower than any
// answer: it reads as the whole phase.
func latencies(p *passResult) []float64 {
	var out []float64
	for i, s := range p.samples {
		if s.req.path == pathBatch {
			continue
		}
		if p.ok[i] {
			out = append(out, ms(s.latency()))
		} else {
			out = append(out, ms(p.ph.wall))
		}
	}
	return out
}

// ttfrs are the send → first-answer times in ms of the requests that
// delivered an answer: a stream's first answer frame, or the first byte
// of a one-shot answer.
func ttfrs(p *passResult) []float64 {
	var out []float64
	for i, s := range p.samples {
		if s.req.path != pathBatch && p.ok[i] && s.first > 0 {
			out = append(out, ms(s.first-s.start))
		}
	}
	return out
}

// endToEnd computes the metrics a user of cqfitd sees, from an untraced
// pass.
func endToEnd(p *passResult) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	jobs := float64(max(p.jobs, 1))
	lat, ttfr := latencies(p), ttfrs(p)
	put("jobs_per_s", "jobs/s", float64(p.jobs)/p.ph.wall.Seconds())
	for _, q := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"latency_p50_ms", lat, .5}, {"latency_p99_ms", lat, .99},
		{"ttfr_p50_ms", ttfr, .5}, {"ttfr_p90_ms", ttfr, .9},
	} {
		v, err := quantile(q.xs, q.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		put(q.name, "ms", v)
	}
	ok := 0
	for _, b := range p.ok {
		if b {
			ok++
		}
	}
	put("success_ratio", "ratio", float64(ok)/float64(max(len(p.samples), 1)))
	put("cpu_ms_per_job", "ms", ms(p.after.cpu.total()-p.before.cpu.total())/jobs)
	put("alloc_kb_per_job", "KiB", float64(p.after.mem.TotalAlloc-p.before.mem.TotalAlloc)/1024/jobs)
	put("peak_rss_mb", "MB", float64(p.hwm)/1e6)
	setup := make([]float64, len(p.setup))
	for i, d := range p.setup {
		setup[i] = d.Seconds()
	}
	put("setup_s", "s", median(setup))
	return m, nil
}

// perLayer computes the per-layer metrics from the untraced pass (plain)
// and the traced pass of the same seed.
func (b *bench) perLayer(plain, tr *passResult) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	jobs := float64(max(tr.jobs, 1))
	s0, s1 := tr.before.stats.Engine, tr.after.stats.Engine

	// cmd/cqfitd: what the HTTP layer adds around the engine.
	var overhead, gap, elapsed []float64
	for i, s := range tr.samples {
		if !tr.ok[i] || s.req.path == pathBatch || math.IsNaN(tr.elapsed[i]) {
			continue
		}
		overhead = append(overhead, ms(s.latency())-tr.elapsed[i])
		if s.first > 0 {
			elapsed = append(elapsed, tr.elapsed[i])
			gap = append(gap, ms(s.first-s.start)-tr.elapsed[i])
		}
	}
	firstResult := mean(elapsed)
	if n := s1.Streams.FirstResult.Count - s0.Streams.FirstResult.Count; n > 0 {
		firstResult = (s1.Streams.FirstResult.sum() - s0.Streams.FirstResult.sum()) / float64(n)
		gap = []float64{mean(ttfrs(tr)) - firstResult}
	}
	put("cqfitd.http_overhead_ms_p50", "ms", median(overhead))
	put("cqfitd.first_frame_gap_ms", "ms", mean(gap))
	put("cqfitd.rejected", "count", tr.after.metrics["cqfitd_rejected_total"]-tr.before.metrics["cqfitd_rejected_total"])

	// internal/engine.
	put("engine.queue_wait_ms_avg", "ms", ratio(s1.Wait.sum()-s0.Wait.sum(), float64(s1.Wait.Count-s0.Wait.Count)))
	put("engine.job_ms_p50", "ms", plain.jobMS)
	put("engine.store_hit_ratio", "ratio", float64(s1.StoreHits-s0.StoreHits)/jobs)
	put("engine.dedup_shared_ratio", "ratio", float64(s1.DedupShared-s0.DedupShared)/jobs)
	put("engine.solver_runs_per_job", "count", float64(s1.SolverRuns-s0.SolverRuns)/jobs)
	hit := func(h1, h0, m1, m0 int64) float64 { return ratio(float64(h1-h0), float64(h1-h0+m1-m0)) }
	c0, c1 := s0.Cache, s1.Cache
	put("engine.memo_hom_hit_ratio", "ratio", hit(c1.HomHits, c0.HomHits, c1.HomMisses, c0.HomMisses))
	put("engine.memo_core_hit_ratio", "ratio", hit(c1.CoreHits, c0.CoreHits, c1.CoreMisses, c0.CoreMisses))
	put("engine.memo_product_hit_ratio", "ratio", hit(c1.ProductHits, c0.ProductHits, c1.ProductMisses, c0.ProductMisses))
	put("engine.first_result_ms_avg", "ms", firstResult)
	put("engine.store_dropped_writes", "count", float64(s1.Store.DroppedWrites-s0.Store.DroppedWrites))
	put("engine.spill_dropped", "count", float64(s1.MemoSpill.Dropped-s0.MemoSpill.Dropped))

	// internal/store.
	openMS, err := b.timeStoreOpen()
	if err != nil {
		return nil, err
	}
	put("store.open_ms", "ms", openMS)
	put("store.hits", "count", float64(s1.Store.Hits-s0.Store.Hits))
	puts := float64(s1.Store.Puts - s0.Store.Puts)
	put("store.puts", "count", puts)
	put("store.bytes_per_put", "B", ratio(float64(s1.Store.Bytes-s0.Store.Bytes), puts))
	put("store.put_errors", "count", float64(s1.Store.PutErrors-s0.Store.PutErrors))
	f0, f1 := s0.MemoSpill, s1.MemoSpill
	put("store.spill_faulted_per_job", "count", float64(f1.FaultedHom+f1.FaultedCore+f1.FaultedProduct-f0.FaultedHom-f0.FaultedCore-f0.FaultedProduct)/jobs)

	// internal/instance, timed in-process over the phase's request bodies.
	buildUS, fpUS, err := timeBuild(tr.samples)
	if err != nil {
		return nil, err
	}
	put("instance.build_us_per_job", "us", buildUS)
	put("instance.fingerprint_us_per_job", "us", fpUS)

	// Solver layers, from the explain reports.
	self, ctr, total := tr.reports.self, tr.reports.ctr, tr.reports.total
	perJob := func(v float64) float64 { return v / float64(max(tr.keptJobs, 1)) }
	put("solve.ms_per_job", "ms", perJob(total))
	for _, ph := range []string{"hom_search", "core", "product", "sim", "frontier", "enum", "hypergraph_decompose", "semijoin"} {
		put(ph+".self_ms_per_job", "ms", perJob(self[ph]))
		put(ph+".share", "ratio", ratio(self[ph], total))
	}
	put("product.facts_per_job", "count", perJob(ctr["product_facts"]))
	put("enum.candidates_per_job", "count", perJob(ctr["enum_candidates"]))
	put("core.retractions_per_job", "count", perJob(ctr["core_retractions"]))
	put("hom.searches_per_job", "count", perJob(ctr["hom_searches"]))
	put("hom.nodes_per_search", "count", ratio(ctr["hom_nodes"], ctr["hom_searches"]))
	put("hom.prunings_per_node", "count", ratio(ctr["hom_prunings"], ctr["hom_nodes"]))
	put("hypergraph.jointree_share", "ratio", ratio(ctr["dispatch_jointree"], ctr["dispatch_jointree"]+ctr["dispatch_backtrack"]))
	put("semijoin.reductions_per_job", "count", perJob(ctr["semijoin_reductions"]))
	put("jointree.nodes_per_job", "count", perJob(ctr["jointree_nodes"]))

	// The daemon runtime and host, from the untraced pass.
	pj := float64(max(plain.jobs, 1))
	cpu := plain.after.cpu.total() - plain.before.cpu.total()
	put("compact.search_parallelism", "cpu/wall", cpu.Seconds()/plain.ph.wall.Seconds())
	put("runtime.mallocs_per_job", "count", float64(plain.after.mem.Mallocs-plain.before.mem.Mallocs)/pj)
	put("runtime.gc_cycles_per_kjob", "count", 1000*float64(plain.after.mem.NumGC-plain.before.mem.NumGC)/pj)
	put("runtime.gc_pause_ms", "ms", pauseMS(plain.before.mem, plain.after.mem))
	put("host.steal_share", "ratio", stealShare(plain.before.host, plain.after.host))
	plainRate := float64(plain.jobs) / plain.ph.wall.Seconds()
	traceRate := float64(tr.jobs) / tr.ph.wall.Seconds()
	put("obs.trace_overhead_pct", "%", 100*(plainRate/traceRate-1))

	// The benchmark's own client spans in the traced pass.
	put("client.encode_us_per_req", "us", us(b.w.encode)/float64(max(b.w.nbody, 1)))
	put("client.roundtrip_ms_p50", "ms", median(latencies(tr)))
	put("client.first_frame_ms_p50", "ms", median(ttfrs(tr)))
	put("client.decode_us_per_req", "us", us(tr.decodeTime)/float64(max(tr.decoded, 1)))
	return m, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timeBuild times engine.JobSpec.Build and Job.FingerprintHex, the
// daemon's parse and fingerprint steps, over the jobs of the phase's
// request bodies, decoded as the daemon decodes them. It returns µs per
// job for each.
func timeBuild(samples []*sample) (buildUS, fpUS float64, err error) {
	var build, fp time.Duration
	n := 0
	for _, s := range samples {
		var specs []engine.JobSpec
		if s.req.path == pathBatch {
			var b struct {
				Jobs []engine.JobSpec `json:"jobs"`
			}
			err = json.Unmarshal(s.req.payload(), &b)
			specs = b.Jobs
		} else {
			specs = make([]engine.JobSpec, 1)
			err = json.Unmarshal(s.req.payload(), &specs[0])
		}
		if err != nil {
			return 0, 0, fmt.Errorf("decode request body: %w", err)
		}
		for _, spec := range specs {
			t := time.Now()
			j, err := spec.Build()
			build += time.Since(t)
			if err != nil {
				return 0, 0, fmt.Errorf("JobSpec.Build: %w", err)
			}
			t = time.Now()
			j.FingerprintHex()
			fp += time.Since(t)
			n++
		}
	}
	if n == 0 {
		return 0, 0, nil
	}
	return us(build) / float64(n), us(fp) / float64(n), nil
}

// timeStoreOpen times store.Open on a copy of the store the workload's
// daemons start from (an empty directory for workloads without one),
// taking the median of five opens.
func (b *bench) timeStoreOpen() (float64, error) {
	var xs []float64
	for i := 0; i < 5; i++ {
		dir := filepath.Join(b.scratch, fmt.Sprintf("open-%d", i))
		if b.prefilled != "" {
			if err := copyDir(b.prefilled, dir); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		st, err := store.Open(dir, store.Options{MaxBytes: 256 << 20})
		d := time.Since(t)
		if err != nil {
			return 0, fmt.Errorf("store.Open: %w", err)
		}
		if err := st.Close(); err != nil {
			return 0, fmt.Errorf("store close: %w", err)
		}
		xs = append(xs, ms(d))
	}
	return median(xs), nil
}
