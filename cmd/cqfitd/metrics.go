package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"extremalcq/internal/obs"
)

// Prometheus text exposition (version 0.0.4) of the engine's counters.
// Everything exported here is a snapshot of engine.Stats plus the
// server-level 429 counter, so /metrics and /v1/stats never disagree.

const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// metricWriter accumulates one exposition body; it keeps the # HELP /
// # TYPE boilerplate next to each family.
type metricWriter struct {
	w io.Writer
}

func (m metricWriter) family(name, help, typ string) {
	fmt.Fprintf(m.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m metricWriter) value(name, labels string, v float64) {
	fmt.Fprintf(m.w, "%s%s %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

func (m metricWriter) single(name, help, typ string, v float64) {
	m.family(name, help, typ)
	m.value(name, "", v)
}

// histogram writes one labeled series set of a Prometheus histogram
// family: cumulative le-labeled buckets (including +Inf), _sum and
// _count. The family's # HELP / # TYPE header is the caller's job —
// declared once even when several label sets share the family.
func (m metricWriter) histogram(name, labels string, snap obs.HistogramSnapshot) {
	var cum int64
	for i, b := range snap.Bounds {
		cum += snap.Counts[i]
		le := strconv.FormatFloat(b, 'g', -1, 64)
		m.value(name+"_bucket", mergeLabels(labels, `le="`+le+`"`), float64(cum))
	}
	cum += snap.Inf
	m.value(name+"_bucket", mergeLabels(labels, `le="+Inf"`), float64(cum))
	m.value(name+"_sum", labels, snap.Sum)
	m.value(name+"_count", labels, float64(cum))
}

// mergeLabels appends extra to a (possibly empty) `{a="b"}` label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Like writeJSON, bound the response write: the server has no global
	// WriteTimeout (streams must outlive any fixed bound), so every
	// non-streaming handler sets its own deadline.
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(oneShotWriteTimeout))
	st := s.eng.Stats()
	w.Header().Set("Content-Type", metricsContentType)
	m := metricWriter{w: w}

	m.single("cqfitd_uptime_seconds", "Time since the server started.", "gauge",
		time.Since(s.start).Seconds())
	m.single("cqfitd_jobs_done_total", "Jobs completed (including failures).", "counter",
		float64(st.JobsDone))
	m.single("cqfitd_jobs_failed_total", "Jobs completed with an error.", "counter",
		float64(st.JobsFailed))
	m.single("cqfitd_rejected_total", "Jobs refused on a full queue (429 responses and in-batch refusals).", "counter",
		float64(s.rejected.Load()))
	m.single("cqfitd_workers", "Worker pool size.", "gauge", float64(st.Workers))
	m.single("cqfitd_queue_depth", "Jobs currently queued.", "gauge", float64(st.QueueDepth))
	m.single("cqfitd_active_solvers", "Solver goroutines currently running.", "gauge",
		float64(st.ActiveSolvers))
	m.single("cqfitd_solver_runs_total", "Solver goroutines ever launched (warm paths launch none).", "counter",
		float64(st.SolverRuns))
	m.single("cqfitd_dedup_leaders_total", "Single-flight computations actually performed.", "counter",
		float64(st.DedupLeaders))
	m.single("cqfitd_dedup_shared_total", "Jobs that adopted an identical in-flight job's result.", "counter",
		float64(st.DedupShared))

	// Hom-search dispatch: join-tree fast path (α-acyclic sources),
	// cutset search (a small cycle cutset, then the join tree) and
	// generic backtracking.
	m.family("cqfitd_hom_dispatch_total", "Hom searches served per dispatch path.", "counter")
	m.value("cqfitd_hom_dispatch_total", `{path="jointree"}`, float64(st.Dispatch.JoinTree))
	m.value("cqfitd_hom_dispatch_total", `{path="cutset"}`, float64(st.Dispatch.Cutset))
	m.value("cqfitd_hom_dispatch_total", `{path="backtrack"}`, float64(st.Dispatch.Backtrack))

	// Streaming enumeration (POST /v1/jobs/stream).
	m.single("cqfitd_streams_started_total", "Streaming submissions accepted.", "counter",
		float64(st.Streams.Started))
	m.single("cqfitd_streams_active", "Streams currently open.", "gauge",
		float64(st.Streams.Active))
	m.single("cqfitd_stream_results_total", "Answer frames delivered across all streams.", "counter",
		float64(st.Streams.Results))
	m.family("cqfitd_stream_first_result_ms", "Submit to first answer latency aggregates.", "gauge")
	m.value("cqfitd_stream_first_result_ms", `{stat="min"}`, st.Streams.FirstResult.MinMS)
	m.value("cqfitd_stream_first_result_ms", `{stat="avg"}`, st.Streams.FirstResult.AvgMS)
	m.value("cqfitd_stream_first_result_ms", `{stat="max"}`, st.Streams.FirstResult.MaxMS)
	m.single("cqfitd_stream_first_results_total", "Streams that emitted at least one answer.", "counter",
		float64(st.Streams.FirstResult.Count))

	// Latency histograms. These replace the old cqfitd_queue_wait_ms and
	// cqfitd_task_latency_ms min/avg/max gauge families (see README):
	// cumulative fixed-bucket histograms support rate() and
	// histogram_quantile() where point-in-time gauges could not.
	m.family("cqfitd_job_duration_seconds", "Job execution wall time.", "histogram")
	m.histogram("cqfitd_job_duration_seconds", "", st.Durations.Job)
	m.family("cqfitd_queue_wait_seconds", "Queue wait (submit to dispatch latency).", "histogram")
	m.histogram("cqfitd_queue_wait_seconds", "", st.Durations.Queue)
	if len(st.Durations.Phases) > 0 {
		phases := make([]string, 0, len(st.Durations.Phases))
		for p := range st.Durations.Phases {
			phases = append(phases, p)
		}
		sort.Strings(phases)
		m.family("cqfitd_phase_duration_seconds", "Per-phase solver time of traced jobs (?debug=trace).", "histogram")
		for _, p := range phases {
			m.histogram("cqfitd_phase_duration_seconds", fmt.Sprintf("{phase=%q}", p), st.Durations.Phases[p])
		}
	}
	if len(st.Durations.Tasks) > 0 {
		tasks := make([]string, 0, len(st.Durations.Tasks))
		for k := range st.Durations.Tasks {
			tasks = append(tasks, k)
		}
		sort.Strings(tasks)
		m.family("cqfitd_task_duration_seconds", "Job execution wall time per kind/task.", "histogram")
		for _, k := range tasks {
			m.histogram("cqfitd_task_duration_seconds", fmt.Sprintf("{task=%q}", k), st.Durations.Tasks[k])
		}
	}

	// Memo (hom/core/product) classes.
	m.family("cqfitd_cache_hits_total", "Memo hits per class.", "counter")
	m.value("cqfitd_cache_hits_total", `{class="hom"}`, float64(st.Cache.HomHits))
	m.value("cqfitd_cache_hits_total", `{class="core"}`, float64(st.Cache.CoreHits))
	m.value("cqfitd_cache_hits_total", `{class="product"}`, float64(st.Cache.ProductHits))
	m.family("cqfitd_cache_misses_total", "Memo misses per class.", "counter")
	m.value("cqfitd_cache_misses_total", `{class="hom"}`, float64(st.Cache.HomMisses))
	m.value("cqfitd_cache_misses_total", `{class="core"}`, float64(st.Cache.CoreMisses))
	m.value("cqfitd_cache_misses_total", `{class="product"}`, float64(st.Cache.ProductMisses))
	m.single("cqfitd_cache_entries", "Memo entries across all classes and shards.", "gauge",
		float64(st.Cache.Entries))
	m.single("cqfitd_cache_shards", "Memo lock stripes.", "gauge", float64(st.Cache.Shards))

	// Persistent result store (exported only when one is attached, so
	// dashboards can alert on the family's absence).
	if st.Store != nil {
		m.single("cqfitd_store_hits_total", "Jobs answered from the persistent store.", "counter",
			float64(st.Store.Hits))
		m.single("cqfitd_store_misses_total", "Store lookups that missed.", "counter",
			float64(st.Store.Misses))
		m.single("cqfitd_store_puts_total", "Results persisted.", "counter",
			float64(st.Store.Puts))
		m.single("cqfitd_store_bytes", "Total segment-file bytes on disk.", "gauge",
			float64(st.Store.Bytes))
		m.single("cqfitd_store_dead_bytes", "On-disk bytes holding overwritten records.", "gauge",
			float64(st.Store.DeadBytes))
		m.single("cqfitd_store_entries", "Live keys in the store.", "gauge",
			float64(st.Store.Entries))
		m.single("cqfitd_store_segments", "Segment files on disk.", "gauge",
			float64(st.Store.Segments))
		m.single("cqfitd_store_evicted_segments_total", "Whole segments dropped by the byte budget.", "counter",
			float64(st.Store.EvictedSegments))
		m.single("cqfitd_store_compactions_total", "Live-record rewrites.", "counter",
			float64(st.Store.Compactions))
		m.single("cqfitd_store_dropped_writes_total", "Completions not persisted (write-behind queue full).", "counter",
			float64(st.Store.DroppedWrites))
		m.single("cqfitd_store_write_queue", "Write-behind queue depth.", "gauge",
			float64(st.Store.WriteQueue))
		m.single("cqfitd_store_put_errors_total", "Persist attempts that failed (e.g. disk full).", "counter",
			float64(st.Store.PutErrors))
		m.single("cqfitd_store_compact_errors_total", "Auto-compactions that failed and left the log as-is.", "counter",
			float64(st.Store.CompactErrors))
		m.single("cqfitd_store_bad_records_total", "Persisted records that failed to decode and were served as misses.", "counter",
			float64(st.Store.BadRecords))
		m.single("cqfitd_store_recovered_truncations_total", "Segments cut back at open due to torn or corrupt records.", "counter",
			float64(st.Store.RecoveredTruncations))
		if len(st.Store.KindEntries) > 0 {
			m.family("cqfitd_store_kind_entries", "Live keys per record kind.", "gauge")
			kindNames := make([]string, 0, len(st.Store.KindEntries))
			for k := range st.Store.KindEntries {
				kindNames = append(kindNames, k)
			}
			sort.Strings(kindNames)
			for _, k := range kindNames {
				m.value("cqfitd_store_kind_entries", fmt.Sprintf("{kind=%q}", k), float64(st.Store.KindEntries[k]))
			}
		}
	}

	// Memo spill (exported only when -memo-spill is active, so dashboards
	// can alert on the family's absence).
	if st.MemoSpill != nil {
		m.family("cqfitd_memo_spill_faulted_total", "Memo misses answered from the persistent store per class.", "counter")
		m.value("cqfitd_memo_spill_faulted_total", `{class="hom"}`, float64(st.MemoSpill.FaultedHom))
		m.value("cqfitd_memo_spill_faulted_total", `{class="core"}`, float64(st.MemoSpill.FaultedCore))
		m.value("cqfitd_memo_spill_faulted_total", `{class="product"}`, float64(st.MemoSpill.FaultedProduct))
		m.single("cqfitd_memo_spill_writes_total", "Memo entries enqueued for persistence.", "counter",
			float64(st.MemoSpill.Spilled))
		m.single("cqfitd_memo_spill_dropped_total", "Memo entries discarded on a full write-behind queue.", "counter",
			float64(st.MemoSpill.Dropped))
		m.single("cqfitd_memo_spill_bad_records_total", "Persisted memo entries that failed to decode and were served as misses.", "counter",
			float64(st.MemoSpill.BadRecords))
	}

	// Per kind/task latency aggregates, sorted for stable scrapes.
	keys := make([]string, 0, len(st.Tasks))
	for k := range st.Tasks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	m.family("cqfitd_task_jobs_total", "Jobs completed per kind/task.", "counter")
	for _, k := range keys {
		m.value("cqfitd_task_jobs_total", fmt.Sprintf("{task=%q}", k), float64(st.Tasks[k].Count))
	}
	m.family("cqfitd_task_errors_total", "Failed jobs per kind/task.", "counter")
	for _, k := range keys {
		m.value("cqfitd_task_errors_total", fmt.Sprintf("{task=%q}", k), float64(st.Tasks[k].Errors))
	}
}
