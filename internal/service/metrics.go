package service

import (
	"fmt"
	"io"
)

// WriteMetrics renders the service's telemetry in Prometheus text
// exposition format (version 0.0.4): `# HELP` / `# TYPE` comment pairs
// followed by one sample per line. Everything here is operator
// telemetry — results never depend on any of it.
func (s *Service) WriteMetrics(w io.Writer) error {
	st := s.EngineStats()
	queued, capacity := s.QueueDepth()

	type sample struct {
		name  string
		help  string
		typ   string // counter | gauge
		value float64
	}
	samples := []sample{
		{"suitd_submissions_total", "Spec submissions received.", "counter", float64(s.submissions.Load())},
		{"suitd_cache_hits_total", "Submissions served without a new engine execution (registry dedup + persistent result store).", "counter", float64(s.dedupHits.Load() + s.storeHits.Load())},
		{"suitd_singleflight_dedup_total", "Submissions coalesced onto an existing registry job.", "counter", float64(s.dedupHits.Load())},
		{"suitd_result_store_hits_total", "Submissions served from the persistent result store.", "counter", float64(s.storeHits.Load())},
		{"suitd_rejected_total", "Submissions rejected with backpressure (admission queue full).", "counter", float64(s.rejected.Load())},
		{"suitd_jobs_executed_total", "Jobs whose execution ran to a terminal state in this daemon lifetime.", "counter", float64(s.jobsExecuted.Load())},
		{"suitd_queue_depth", "Jobs waiting in the admission queue.", "gauge", float64(queued)},
		{"suitd_queue_capacity", "Admission queue capacity.", "gauge", float64(capacity)},
		{"suitd_engine_inflight", "Scenario executions currently running (single-flight leaders).", "gauge", float64(s.Inflight())},
		{"suitd_engine_scenarios_total", "Scenario jobs submitted to the engine.", "counter", float64(st.Jobs)},
		{"suitd_engine_unique_total", "Unique scenario fingerprints submitted.", "counter", float64(st.Unique)},
		{"suitd_engine_ran_total", "Scenarios actually simulated.", "counter", float64(st.Ran)},
		{"suitd_engine_mem_hits_total", "Unique scenarios served from the in-memory memo.", "counter", float64(st.MemHits)},
		{"suitd_engine_disk_hits_total", "Unique scenarios served from the on-disk cache.", "counter", float64(st.DiskHits)},
		{"suitd_engine_coalesced_total", "Scenarios served by another run's in-flight execution.", "counter", float64(st.Coalesced)},
		{"suitd_engine_failed_total", "Scenarios whose one attempt failed.", "counter", float64(st.Failed)},
		{"suitd_engine_panics_total", "Failed scenarios that panicked and were contained.", "counter", float64(st.Panicked)},
		{"suitd_engine_quarantined_total", "Corrupt cache entries quarantined.", "counter", float64(st.Quarantined)},
		{"suitd_engine_cache_hit_rate", "Fraction of unique scenarios served from a cache layer.", "gauge", st.HitRate()},
		{"suitd_engine_run_seconds_total", "Wall-clock seconds spent inside engine runs.", "counter", st.Elapsed.Seconds()},
		{"suitd_engine_throughput_scenarios_per_second", "Simulated scenarios per second of engine run time.", "gauge", st.Throughput()},
		{"suitd_engine_remote_total", "Scenarios executed by remote workers (within ran).", "counter", float64(st.Remote)},
		{"suitd_store_quarantined_total", "Corrupt result-store entries moved aside.", "counter", float64(s.store.Quarantined())},
	}
	ds := s.DistStats()
	tripped := 0.0
	if ds.Tripped {
		tripped = 1
	}
	samples = append(samples,
		sample{"suitd_dist_offered_total", "Work units offered to the remote worker tier.", "counter", float64(ds.Offered)},
		sample{"suitd_dist_completed_total", "Work units completed by workers with a verified digest.", "counter", float64(ds.Completed)},
		sample{"suitd_dist_local_fallbacks_total", "Offers that declined to local execution (no workers, tripped breaker, exhausted attempts).", "counter", float64(ds.LocalFallbacks)},
		sample{"suitd_dist_no_worker_abandons_total", "Offered units pulled back to local execution because every worker went silent mid-wait.", "counter", float64(ds.NoWorkerAbandons)},
		sample{"suitd_dist_leases_total", "Leases granted to workers.", "counter", float64(ds.Leases)},
		sample{"suitd_dist_leases_expired_total", "Leases expired without a heartbeat (worker crash or partition).", "counter", float64(ds.Expired)},
		sample{"suitd_dist_reassigned_total", "Units re-queued after a failed lease.", "counter", float64(ds.Reassigned)},
		sample{"suitd_dist_exhausted_total", "Units whose remote attempt budget ran out.", "counter", float64(ds.Exhausted)},
		sample{"suitd_dist_error_results_total", "Worker-reported failures (fingerprint mismatch, failed simulation).", "counter", float64(ds.ErrorResults)},
		sample{"suitd_dist_duplicates_total", "At-least-once re-deliveries that verified against the recorded digest.", "counter", float64(ds.Duplicates)},
		sample{"suitd_dist_conflicts_total", "Duplicate deliveries that did NOT match the recorded digest (determinism violation; always 0 in a healthy fleet).", "counter", float64(ds.Conflicts)},
		sample{"suitd_dist_bad_digests_total", "Results rejected for a torn or garbled body.", "counter", float64(ds.BadDigests)},
		sample{"suitd_dist_worker_quarantines_total", "Workers quarantined after consecutive lease failures.", "counter", float64(ds.Quarantines)},
		sample{"suitd_dist_trips_total", "Dispatcher circuit-breaker trips.", "counter", float64(ds.Trips)},
		sample{"suitd_dist_revision_refusals_total", "Claims refused because the worker was built at another results revision.", "counter", float64(ds.RevisionRefusals)},
		sample{"suitd_dist_pending_units", "Units queued for workers right now.", "gauge", float64(ds.PendingUnits)},
		sample{"suitd_dist_leased_units", "Units out under a live lease right now.", "gauge", float64(ds.LeasedUnits)},
		sample{"suitd_dist_live_workers", "Workers seen within the liveness window.", "gauge", float64(ds.LiveWorkers)},
		sample{"suitd_dist_quarantined_workers", "Workers currently quarantined.", "gauge", float64(ds.QuarantinedWorkers)},
		sample{"suitd_dist_tripped", "Whether the dispatcher breaker is open (1) or closed (0).", "gauge", tripped},
	)
	for _, m := range samples {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", m.name, m.help, m.name, m.typ, m.name, m.value); err != nil {
			return err
		}
	}

	// Per-state job gauges, iterated in lifecycle order (never over a
	// map) so the page renders deterministically.
	counts := make(map[State]int, len(States))
	for _, j := range s.JobsInOrder() {
		counts[j.State()]++
	}
	if _, err := fmt.Fprintf(w, "# HELP suitd_jobs Registry jobs by lifecycle state.\n# TYPE suitd_jobs gauge\n"); err != nil {
		return err
	}
	for _, state := range States {
		if _, err := fmt.Fprintf(w, "suitd_jobs{state=%q} %d\n", string(state), counts[state]); err != nil {
			return err
		}
	}
	return nil
}
