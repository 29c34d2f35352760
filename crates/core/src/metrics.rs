//! Run metrics: everything the paper's figures report.

use std::collections::BTreeMap;
use std::ops::Deref;

use cbp_simkit::stats::Samples;
use cbp_simkit::{RunStats, SimTime};
use cbp_telemetry::{
    MetricsRegistry, NullTracer, StreamingQuantiles, TimeSeries, TraceRecord, Tracer,
};
use cbp_workload::{LatencyClass, PriorityBand};

use crate::ckpt_path::CkptPath;

/// Response-time statistics for one priority band.
#[derive(Debug, Clone)]
pub struct BandMetrics {
    /// Jobs finished in this band.
    pub jobs: u64,
    /// Mean response time (submission → last task finish), seconds.
    pub mean_response_secs: f64,
    /// All response times, seconds, in finish order (for CDFs and
    /// percentiles).
    pub responses: Samples,
}

/// Aggregate results of one simulation run — the quantities plotted in
/// Figs. 3, 4, 5, 6, 8–12. Both simulators report it; a counter only one
/// of them keeps is 0 under the other. The run counters are
/// [`RunMetrics::counts`], read through `Deref` (`m.kills`).
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Total simulated time (first submit → last event).
    pub makespan_secs: f64,
    /// Jobs that completed.
    pub jobs_finished: u64,
    /// The run counters, each a fold over the run's trace records.
    pub counts: RunCounts,
    /// Total breaker-open seconds summed over every per-node breaker and
    /// the global one (time the checkpoint path was considered down).
    pub breaker_open_secs: f64,
    /// Checkpoint chains destroyed by node failures (local-FS images on the
    /// failed node; HDFS chains that lost a block past replication's reach).
    pub images_lost_to_failures: u64,
    /// CPU-hours burnt inside failed dump/restore attempts and their
    /// rewrites (part of wasted CPU).
    pub retry_overhead_cpu_hours: f64,
    /// HDFS blocks whose every replica died (data loss).
    pub dfs_blocks_lost: u64,
    /// CPU-hours lost to killed progress (re-execution waste).
    pub kill_lost_cpu_hours: f64,
    /// CPU-hours spent holding resources during dumps.
    pub dump_overhead_cpu_hours: f64,
    /// CPU-hours spent holding resources during restores.
    pub restore_overhead_cpu_hours: f64,
    /// CPU-hours of useful (completed) work.
    pub useful_cpu_hours: f64,
    /// Total cluster energy, kWh.
    pub energy_kwh: f64,
    /// Mean per-node storage-device busy fraction (the paper's worst-case
    /// I/O overhead metric, Fig. 12b).
    pub io_overhead_fraction: f64,
    /// Peak checkpoint-storage use as a fraction of device capacity,
    /// averaged over nodes (§5.3.3).
    pub storage_peak_fraction: f64,
    /// Per-band response statistics.
    pub per_band: BTreeMap<PriorityBand, BandMetrics>,
    /// Per latency-sensitivity class response statistics (the paper's
    /// Table 2 QoS concern: latency-bound tasks suffer from preemption).
    pub per_latency: BTreeMap<u8, BandMetrics>,
}

impl Deref for RunMetrics {
    type Target = RunCounts;

    fn deref(&self) -> &RunCounts {
        &self.counts
    }
}

impl RunMetrics {
    /// Total wasted CPU-hours: killed progress plus checkpoint/restore
    /// overhead (the paper's Fig. 3a / Fig. 8a quantity), plus — under
    /// fault injection — the CPU burnt in failed attempts and rewrites.
    pub fn wasted_cpu_hours(&self) -> f64 {
        self.kill_lost_cpu_hours
            + self.dump_overhead_cpu_hours
            + self.restore_overhead_cpu_hours
            + self.retry_overhead_cpu_hours
    }

    /// Wasted CPU as a fraction of all consumed CPU.
    pub fn waste_fraction(&self) -> f64 {
        let total = self.useful_cpu_hours + self.wasted_cpu_hours();
        if total == 0.0 {
            0.0
        } else {
            self.wasted_cpu_hours() / total
        }
    }

    /// Fraction of consumed CPU time spent checkpointing/restoring
    /// (Fig. 12a).
    pub fn cpu_overhead_fraction(&self) -> f64 {
        let total = self.useful_cpu_hours + self.wasted_cpu_hours();
        if total == 0.0 {
            0.0
        } else {
            (self.dump_overhead_cpu_hours + self.restore_overhead_cpu_hours) / total
        }
    }

    /// Mean response time of one latency class, seconds (0 if empty).
    pub fn mean_response_latency(&self, class: LatencyClass) -> f64 {
        self.per_latency
            .get(&class.0)
            .map(|b| b.mean_response_secs)
            .unwrap_or(0.0)
    }

    /// Mean response time of one band, seconds (0 if the band is empty).
    pub fn mean_response(&self, band: PriorityBand) -> f64 {
        self.per_band
            .get(&band)
            .map(|b| b.mean_response_secs)
            .unwrap_or(0.0)
    }

    /// Mean response over all jobs, seconds.
    pub fn mean_response_overall(&self) -> f64 {
        let (sum, n) = self.per_band.values().fold((0.0, 0u64), |(s, n), b| {
            (s + b.mean_response_secs * b.jobs as f64, n + b.jobs)
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Every job's response time, seconds, band by band (for the Fig. 9
    /// CDF).
    pub fn all_responses(&self) -> Samples {
        self.per_band
            .values()
            .flat_map(|b| b.responses.values().iter().copied())
            .collect()
    }
}

/// Observability artifacts of one run: the metrics-registry snapshot, the
/// optional periodic time series, and engine throughput.
#[derive(Debug, Default, Clone)]
pub struct TelemetryReport {
    /// Snapshot of every `subsystem.metric` the run registered.
    pub registry: MetricsRegistry,
    /// Periodic samples (present iff sampling was enabled).
    pub timeseries: Option<TimeSeries>,
    /// Events the engine processed.
    pub engine_events: u64,
    /// Host wall-clock seconds the engine loop took.
    pub engine_wall_secs: f64,
    /// Work of [`crate::ClusterSim`]'s scheduling passes (`None` for other
    /// simulators).
    pub pass_work: Option<PassWork>,
}

/// Exact work counters of [`crate::ClusterSim`]'s scheduling passes. They
/// are a pure function of the run, like the event count, but are kept out
/// of the metrics registry: they describe how the scheduler walks its
/// queue, not what it decides, so a faster walk changes them while every
/// registry digest stays put.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PassWork {
    /// Scheduling passes run.
    pub passes: u64,
    /// Pending keys the passes moved past, the count `max_schedule_scan`
    /// limits: `keys_visited + keys_jumped`.
    pub keys_scanned: u64,
    /// Keys looked at one at a time, by the idle walk or the search path.
    pub keys_visited: u64,
    /// Keys passed inside a chunk of the pending queue known to be dead.
    pub keys_jumped: u64,
    /// Restore-placement RNG draws the walk made for keys it did not act
    /// on.
    pub walk_draws: u64,
    /// Preemption searches (calls of the victim search).
    pub searches: u64,
    /// Up nodes the victim search looked at.
    pub nodes_scanned: u64,
    /// Nodes whose victims the search costed and sorted.
    pub nodes_ranked: u64,
    /// Victims the search costed.
    pub victims_costed: u64,
    /// Rebuilds of the pass's free and reach fronts.
    pub front_rebuilds: u64,
    /// Nodes fed into those rebuilds.
    pub front_points: u64,
}

impl PassWork {
    /// The counters as `(name, value)` pairs, in a fixed order.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("passes", self.passes),
            ("keys_scanned", self.keys_scanned),
            ("keys_visited", self.keys_visited),
            ("keys_jumped", self.keys_jumped),
            ("walk_draws", self.walk_draws),
            ("searches", self.searches),
            ("nodes_scanned", self.nodes_scanned),
            ("nodes_ranked", self.nodes_ranked),
            ("victims_costed", self.victims_costed),
            ("front_rebuilds", self.front_rebuilds),
            ("front_points", self.front_points),
        ]
    }
}

impl TelemetryReport {
    /// Engine throughput in events per wall-clock second (0 if instant).
    pub fn events_per_sec(&self) -> f64 {
        if self.engine_wall_secs > 0.0 {
            self.engine_events as f64 / self.engine_wall_secs
        } else {
            0.0
        }
    }
}

/// A finished run: metrics and observability artifacts. For the §2
/// analysis, attach a [`crate::analysis::PreemptionTracer`] (see
/// [`crate::SimConfig::run_analyzed`]).
#[derive(Debug)]
pub struct RunReport {
    /// Human-readable run label (policy + medium).
    pub label: String,
    /// Aggregate metrics.
    pub metrics: RunMetrics,
    /// Observability artifacts (registry snapshot, time series, engine
    /// throughput).
    pub telemetry: TelemetryReport,
}

/// The run counters, each a fold over the run's trace records: only
/// [`RunLedger::fold`] writes them. Each doc says what is counted, then
/// names the records counted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunCounts {
    /// Victims killed: `task_evict` records of any reason but `dump`,
    /// `node-crash` and `node-fail`.
    pub kills: u64,
    /// Victims suspended: `dump_start` records.
    pub checkpoints: u64,
    /// Of which incremental dumps: `dump_start` records marked incremental.
    pub incremental_checkpoints: u64,
    /// Restores performed: `restore_done` records.
    pub restores: u64,
    /// Restores on a node other than the checkpoint origin: `restore_start`
    /// records marked remote.
    pub remote_restores: u64,
    /// Containers evicted by chaos-plan node/rack crashes: `task_evict`
    /// records of reason `node-crash`.
    pub crash_evictions: u64,
    /// Containers evicted by ClusterSim's MTBF node failures: `task_evict`
    /// records of reason `node-fail`.
    pub failure_evictions: u64,
    /// Tasks that completed: `task_finish` records.
    pub tasks_finished: u64,
    /// Dumps that fell back to kill because checkpoint storage was full:
    /// `dump_fallback` records of reason `no-space`, `no-capacity`,
    /// `storage-full` or `nvram-full`.
    pub capacity_fallbacks: u64,
    /// Victims killed because the degradation ladder (GC → evict → spill)
    /// still found no space: the capacity fallbacks but the `nvram-full`
    /// ones. With lifecycle disabled these are the bare capacity kills, so
    /// the two modes compare directly.
    pub no_space_kills: u64,
    /// Victims killed because the checkpoint-path circuit breaker was
    /// open: `dump_fallback` records of reason `breaker-open`.
    pub breaker_open_kills: u64,
    /// Dumps cut short by the YARN NodeManager's grace-period force-kill:
    /// `dump_fallback` records of reason `grace-expired`.
    pub force_kills: u64,
    /// Injected dump failures that were retried: `dump_fail` records that
    /// will retry.
    pub dump_fail_retries: u64,
    /// Dumps abandoned after their retry budget, the victim killed:
    /// `dump_fail` records that will not retry.
    pub dump_fail_kills: u64,
    /// Restore failures retried from a surviving replica: `restore_fail`
    /// records that will retry, but `corrupt-image` re-reads.
    pub restore_fail_retries: u64,
    /// Restores abandoned for good, the task restarted from scratch:
    /// `restore_fail` records that will not retry.
    pub scratch_restarts: u64,
    /// Of which forced by integrity loss, no valid prefix left:
    /// `corrupt-image` ones.
    pub integrity_scratch_restarts: u64,
    /// Dumps redirected to a remote node's device because the local one
    /// had no headroom: `image_spill` records.
    pub spill_dumps: u64,
    /// Live chains evicted to make room for a higher-value dump (the task
    /// restarts from scratch): `image_evict` records.
    pub evicted_chains: u64,
    /// Chains truncated to their longest valid prefix after an
    /// unrepairable chunk: `chain_truncate` records.
    pub chain_truncations: u64,
    /// Preemptions the YARN RM escalated to kills because the AM stayed
    /// unresponsive: `am_escalate` records.
    pub am_escalations: u64,
    /// Corrupt chunks re-fetched from a DFS replica during restore
    /// validation: `chunk_refetch` records that repaired their chunk.
    pub chunk_refetches: u64,
    /// Bytes reclaimed by lifecycle GC (leaked reservations and dead
    /// chains), summed over the `gc_pass` records.
    pub gc_reclaimed_bytes: u64,
    /// Interrupted dumps that resumed from their last durable chunk:
    /// `resume_dump` records.
    pub resumed_dumps: u64,
    /// Bytes those dumps did not rewrite, summed over the `resume_dump`
    /// records.
    pub resumed_bytes: u64,
    /// HDFS blocks re-replicated after datanode failures, summed over the
    /// `replication_repair` records.
    pub dfs_blocks_repaired: u64,
    /// Bytes those repairs copied, summed over the `replication_repair`
    /// records.
    pub dfs_repair_bytes: u64,
}

impl RunCounts {
    /// Preemption events: `kills + checkpoints`.
    pub fn preemptions(&self) -> u64 {
        self.kills + self.checkpoints
    }
}

/// The accumulator both simulators write a run into. Its counters are a
/// fold over the run's trace records ([`RunLedger::fold`], fed by the
/// run's [`Recorder`]). What no record carries is kept inline: the
/// CPU-second sums, the response samples per band and per latency class,
/// and the images and DFS blocks lost. [`RunLedger::export`] sets the
/// registry keys the simulators share and [`RunLedger::into_metrics`]
/// turns the ledger into the run's [`RunMetrics`].
#[derive(Debug, Default)]
pub struct RunLedger {
    counts: RunCounts,
    /// Core-seconds of completed work.
    pub useful_cpu_secs: f64,
    /// Core-seconds of progress lost to kills, crashes and scratch
    /// restarts (re-execution waste).
    pub kill_lost_cpu_secs: f64,
    /// Core-seconds spent holding resources during dumps.
    pub dump_overhead_cpu_secs: f64,
    /// Core-seconds spent holding resources during restores.
    pub restore_overhead_cpu_secs: f64,
    /// ClusterSim: core-seconds burnt inside failed dump/restore attempts
    /// and their rewrites.
    pub retry_cpu_secs: f64,
    /// Checkpoint chains destroyed by node failures.
    pub images_lost_to_failures: u64,
    /// HDFS blocks whose every replica died.
    pub dfs_blocks_lost: u64,
    /// Response times per band, seconds, in finish order.
    responses: BTreeMap<PriorityBand, Samples>,
    /// Response times per latency class, seconds, in finish order.
    latency_responses: BTreeMap<u8, Samples>,
}

impl RunLedger {
    /// The counters folded so far.
    pub fn counts(&self) -> &RunCounts {
        &self.counts
    }

    /// Folds one trace record into the counters (see [`RunCounts`]). A
    /// `dump-fail` or node-loss `dump_fallback` counts nothing: the
    /// `dump_fail` or `task_evict` record beside it counts the kill.
    #[inline]
    pub fn fold(&mut self, rec: &TraceRecord) {
        let c = &mut self.counts;
        match *rec {
            TraceRecord::TaskEvict { reason, .. } => match reason {
                "dump" => {}
                "node-crash" => c.crash_evictions += 1,
                "node-fail" => c.failure_evictions += 1,
                _ => c.kills += 1,
            },
            TraceRecord::DumpStart { incremental, .. } => {
                c.checkpoints += 1;
                c.incremental_checkpoints += u64::from(incremental);
            }
            TraceRecord::RestoreStart { remote, .. } => c.remote_restores += u64::from(remote),
            TraceRecord::RestoreDone { .. } => c.restores += 1,
            TraceRecord::TaskFinish { .. } => c.tasks_finished += 1,
            TraceRecord::DumpFallback { reason, .. } => match reason {
                "breaker-open" => c.breaker_open_kills += 1,
                "no-space" | "no-capacity" | "storage-full" => {
                    c.capacity_fallbacks += 1;
                    c.no_space_kills += 1;
                }
                "nvram-full" => c.capacity_fallbacks += 1,
                "grace-expired" => c.force_kills += 1,
                _ => {}
            },
            TraceRecord::DumpFail {
                will_retry: true, ..
            } => c.dump_fail_retries += 1,
            TraceRecord::DumpFail { .. } => c.dump_fail_kills += 1,
            TraceRecord::RestoreFail {
                reason,
                will_retry: true,
                ..
            } => c.restore_fail_retries += u64::from(reason != "corrupt-image"),
            TraceRecord::RestoreFail { reason, .. } => {
                c.scratch_restarts += 1;
                c.integrity_scratch_restarts += u64::from(reason == "corrupt-image");
            }
            TraceRecord::ImageSpill { .. } => c.spill_dumps += 1,
            TraceRecord::ImageEvict { .. } => c.evicted_chains += 1,
            TraceRecord::ChainTruncate { .. } => c.chain_truncations += 1,
            TraceRecord::AmEscalate { .. } => c.am_escalations += 1,
            TraceRecord::ChunkRefetch { ok, .. } => c.chunk_refetches += u64::from(ok),
            TraceRecord::GcPass { reclaimed, .. } => c.gc_reclaimed_bytes += reclaimed,
            TraceRecord::ResumeDump { resumed_bytes, .. } => {
                c.resumed_dumps += 1;
                c.resumed_bytes += resumed_bytes;
            }
            TraceRecord::ReplicationRepair { blocks, bytes, .. } => {
                c.dfs_blocks_repaired += blocks;
                c.dfs_repair_bytes += bytes;
            }
            _ => {}
        }
    }

    /// Records a job that was submitted at `submit` and whose last task
    /// finished at `finish`.
    pub fn record_response(
        &mut self,
        band: PriorityBand,
        latency: LatencyClass,
        submit: SimTime,
        finish: SimTime,
    ) {
        let response = finish.since(submit).as_secs_f64();
        self.responses.entry(band).or_default().push(response);
        self.latency_responses
            .entry(latency.0)
            .or_default()
            .push(response);
    }

    /// Jobs finished so far (one response each).
    pub fn jobs_finished(&self) -> u64 {
        self.responses.values().map(|s| s.len() as u64).sum()
    }

    /// Sets the registry keys both simulators share for a run the engine
    /// ended with `stats`: the engine's event count, the `scheduler.*`
    /// counters, makespan and response quantiles, the crash evictions,
    /// the `lifecycle.*` and `integrity.*` counters, the breaker-open and
    /// dump-fail kills, the `cpu.*_hours` sums and the energy. The
    /// responses are fed to the P² estimators band by band (Free, Middle,
    /// Production), each band in finish order; the estimate depends on
    /// that order.
    pub fn export(&self, reg: &mut MetricsRegistry, stats: &RunStats, energy_kwh: f64) {
        let c = &self.counts;
        reg.set_counter("engine.events", "events", stats.events);
        for (name, unit, v) in [
            ("scheduler.kills", "ops", c.kills),
            ("scheduler.checkpoints", "ops", c.checkpoints),
            ("scheduler.restores", "ops", c.restores),
            ("scheduler.remote_restores", "ops", c.remote_restores),
            ("scheduler.tasks_finished", "ops", c.tasks_finished),
            ("scheduler.jobs_finished", "ops", self.jobs_finished()),
            ("scheduler.capacity_fallbacks", "ops", c.capacity_fallbacks),
            ("faults.crash_evictions", "ops", c.crash_evictions),
            ("faults.breaker_open_kills", "ops", c.breaker_open_kills),
            ("faults.dump_fail_kills", "ops", c.dump_fail_kills),
            (
                "lifecycle.gc_reclaimed_bytes",
                "bytes",
                c.gc_reclaimed_bytes,
            ),
            ("lifecycle.evicted_chains", "ops", c.evicted_chains),
            ("lifecycle.spill_dumps", "ops", c.spill_dumps),
            ("lifecycle.no_space_kills", "ops", c.no_space_kills),
            ("integrity.resumed_dumps", "ops", c.resumed_dumps),
            ("integrity.resumed_bytes", "bytes", c.resumed_bytes),
            ("integrity.chunk_refetches", "ops", c.chunk_refetches),
            ("integrity.chain_truncations", "ops", c.chain_truncations),
            (
                "integrity.scratch_restarts",
                "ops",
                c.integrity_scratch_restarts,
            ),
        ] {
            reg.set_counter(name, unit, v);
        }
        reg.set_gauge("scheduler.makespan_secs", "s", stats.now.as_secs_f64());
        for (name, secs) in [
            ("cpu.useful_hours", self.useful_cpu_secs),
            ("cpu.kill_lost_hours", self.kill_lost_cpu_secs),
            ("cpu.dump_overhead_hours", self.dump_overhead_cpu_secs),
            ("cpu.restore_overhead_hours", self.restore_overhead_cpu_secs),
        ] {
            reg.set_gauge(name, "cpu-hours", secs / 3600.0);
        }
        reg.set_gauge("energy.total_kwh", "kWh", energy_kwh);
        let mut quantiles = StreamingQuantiles::new();
        for samples in self.responses.values() {
            for &v in samples.values() {
                quantiles.observe(v);
            }
        }
        if quantiles.count() > 0 {
            reg.set_quantiles("scheduler.response_secs", "s", quantiles.snapshot());
        }
    }

    /// The metrics of a run that ended at `makespan` having used
    /// `energy_kwh`. The I/O busy and peak storage fractions and the
    /// breaker-open seconds come from the run's checkpoint path `ckpt`.
    pub fn into_metrics(self, makespan: SimTime, energy_kwh: f64, ckpt: &CkptPath) -> RunMetrics {
        fn bands<K: Ord>(samples: BTreeMap<K, Samples>) -> BTreeMap<K, BandMetrics> {
            samples
                .into_iter()
                .map(|(key, responses)| {
                    let metrics = BandMetrics {
                        jobs: responses.len() as u64,
                        mean_response_secs: responses.mean(),
                        responses,
                    };
                    (key, metrics)
                })
                .collect()
        }
        RunMetrics {
            makespan_secs: makespan.as_secs_f64(),
            jobs_finished: self.jobs_finished(),
            counts: self.counts,
            breaker_open_secs: ckpt.breaker_open_secs(makespan),
            images_lost_to_failures: self.images_lost_to_failures,
            retry_overhead_cpu_hours: self.retry_cpu_secs / 3600.0,
            dfs_blocks_lost: self.dfs_blocks_lost,
            kill_lost_cpu_hours: self.kill_lost_cpu_secs / 3600.0,
            dump_overhead_cpu_hours: self.dump_overhead_cpu_secs / 3600.0,
            restore_overhead_cpu_hours: self.restore_overhead_cpu_secs / 3600.0,
            useful_cpu_hours: self.useful_cpu_secs / 3600.0,
            energy_kwh,
            io_overhead_fraction: ckpt.io_busy_fraction(makespan.since(SimTime::ZERO)),
            storage_peak_fraction: ckpt.peak_used_fraction(),
            per_band: bands(self.responses),
            per_latency: bands(self.latency_responses),
        }
    }
}

/// Where every trace record of a run goes: it is folded into the run's
/// [`RunLedger`], then handed to the tracer when one is attached. Both
/// simulators and the checkpoint path record through it alone, so the
/// ledger's counters equal the fold of the trace by construction, traced
/// or not.
pub struct Recorder {
    /// The run's counters and sums.
    pub ledger: RunLedger,
    tracer: Box<dyn Tracer>,
    /// The tracer's [`Tracer::enabled`] answer, cached so a record costs
    /// one branch when no tracer is on.
    on: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            ledger: RunLedger::default(),
            tracer: Box::new(NullTracer),
            on: false,
        }
    }
}

impl Recorder {
    /// Replaces the tracer records are handed to (none by default).
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.on = tracer.enabled();
        self.tracer = tracer;
    }

    /// Whether records reach a tracer. Guard a record that nothing counts
    /// and whose fields cost more than a copy to compute with this.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Folds `rec` into the ledger and hands it to the tracer at `t_us`.
    #[inline]
    pub fn record(&mut self, t_us: u64, rec: TraceRecord) {
        self.ledger.fold(&rec);
        if self.on {
            self.tracer.record(t_us, &rec);
        }
    }

    /// Finalizes the tracer (see [`Tracer::finish`]).
    pub fn finish(&mut self) {
        self.tracer.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_checkpoint::Criu;
    use cbp_storage::MediaSpec;

    /// A two-node checkpoint path with no faults.
    fn path() -> CkptPath {
        CkptPath::new(
            2,
            MediaSpec::ssd(),
            Criu::new(true),
            None,
            None,
            None,
            false,
        )
    }

    /// The counts `records` fold to.
    fn fold(records: &[TraceRecord]) -> RunCounts {
        let mut l = RunLedger::default();
        for rec in records {
            l.fold(rec);
        }
        *l.counts()
    }

    fn evict(reason: &'static str) -> TraceRecord {
        TraceRecord::TaskEvict {
            task: 1,
            node: 0,
            reason,
        }
    }

    fn fallback(reason: &'static str) -> TraceRecord {
        TraceRecord::DumpFallback {
            task: 1,
            node: 0,
            reason,
        }
    }

    fn dump_fail(will_retry: bool) -> TraceRecord {
        TraceRecord::DumpFail {
            task: 1,
            node: 0,
            attempt: 0,
            will_retry,
        }
    }

    fn restore_fail(reason: &'static str, will_retry: bool) -> TraceRecord {
        TraceRecord::RestoreFail {
            task: 1,
            node: 0,
            attempt: 0,
            reason,
            will_retry,
        }
    }

    #[test]
    fn ledger_aggregates_into_metrics() {
        let mut l = RunLedger::default();
        for rec in [
            evict("kill"),
            evict("node-crash"),
            evict("node-crash"),
            TraceRecord::DumpStart {
                task: 2,
                node: 0,
                device: "ssd",
                bytes: 1,
                incremental: true,
            },
            TraceRecord::RestoreStart {
                task: 2,
                node: 1,
                origin: 0,
                device: "ssd",
                bytes: 1,
                remote: true,
            },
            TraceRecord::RestoreDone {
                task: 2,
                node: 1,
                start_us: 0,
            },
            fallback("grace-expired"),
            fallback("breaker-open"),
            fallback("no-space"),
            TraceRecord::AmEscalate {
                task: 3,
                node: 0,
                waited_us: 1,
            },
            TraceRecord::GcPass {
                node: 0,
                reclaimed: 1_000_000,
                chains: 0,
            },
            TraceRecord::ImageEvict {
                task: 4,
                node: 0,
                bytes: 1,
            },
            TraceRecord::ImageSpill {
                task: 5,
                node: 0,
                origin: 1,
                bytes: 1,
            },
            TraceRecord::ResumeDump {
                task: 6,
                node: 0,
                resumed_bytes: 128_000_000,
                total_bytes: 256_000_000,
            },
            TraceRecord::ChunkRefetch {
                task: 7,
                node: 0,
                chunk: 0,
                ok: true,
            },
            TraceRecord::ChainTruncate {
                task: 7,
                node: 0,
                dropped: 1,
                kept: 1,
            },
            restore_fail("corrupt-image", false),
            TraceRecord::ReplicationRepair {
                node: 0,
                blocks: 5,
                bytes: 640,
            },
        ] {
            l.fold(&rec);
        }
        l.kill_lost_cpu_secs = 3600.0 * 2.0;
        l.dump_overhead_cpu_secs = 1800.0;
        l.restore_overhead_cpu_secs = 1800.0;
        l.useful_cpu_secs = 3600.0 * 6.0;
        l.images_lost_to_failures = 2;
        l.record_response(
            PriorityBand::Free,
            LatencyClass::new(0),
            SimTime::ZERO,
            SimTime::from_secs(120),
        );
        l.record_response(
            PriorityBand::Free,
            LatencyClass::new(1),
            SimTime::ZERO,
            SimTime::from_secs(240),
        );
        l.record_response(
            PriorityBand::Production,
            LatencyClass::new(3),
            SimTime::from_secs(60),
            SimTime::from_secs(120),
        );
        assert_eq!(l.jobs_finished(), 3);
        let m = l.into_metrics(SimTime::from_secs(1000), 12.5, &path());

        assert_eq!(m.kills, 1);
        assert_eq!(m.checkpoints, 1);
        assert_eq!(m.incremental_checkpoints, 1);
        assert_eq!(m.restores, 1);
        assert_eq!(m.remote_restores, 1);
        assert_eq!(m.preemptions(), 2);
        assert_eq!(m.crash_evictions, 2);
        assert_eq!(m.force_kills, 1);
        assert_eq!(m.am_escalations, 1);
        assert_eq!(m.breaker_open_kills, 1);
        assert_eq!(m.breaker_open_secs, 0.0);
        assert_eq!(m.gc_reclaimed_bytes, 1_000_000);
        assert_eq!(m.evicted_chains, 1);
        assert_eq!(m.spill_dumps, 1);
        assert_eq!((m.capacity_fallbacks, m.no_space_kills), (1, 1));
        assert_eq!(m.resumed_dumps, 1);
        assert_eq!(m.resumed_bytes, 128_000_000);
        assert_eq!(m.chunk_refetches, 1);
        assert_eq!(m.chain_truncations, 1);
        assert_eq!((m.scratch_restarts, m.integrity_scratch_restarts), (1, 1));
        assert_eq!((m.dfs_blocks_repaired, m.dfs_repair_bytes), (5, 640));
        assert_eq!(m.images_lost_to_failures, 2);
        assert!((m.kill_lost_cpu_hours - 2.0).abs() < 1e-12);
        assert!((m.dump_overhead_cpu_hours - 0.5).abs() < 1e-12);
        assert!((m.restore_overhead_cpu_hours - 0.5).abs() < 1e-12);
        assert!((m.wasted_cpu_hours() - 3.0).abs() < 1e-12);
        assert!((m.waste_fraction() - 3.0 / 9.0).abs() < 1e-12);
        assert!((m.cpu_overhead_fraction() - 1.0 / 9.0).abs() < 1e-12);
        assert_eq!(m.jobs_finished, 3);
        assert!((m.mean_response(PriorityBand::Free) - 180.0).abs() < 1e-9);
        assert!((m.mean_response(PriorityBand::Production) - 60.0).abs() < 1e-9);
        assert!((m.mean_response_overall() - (120.0 + 240.0 + 60.0) / 3.0).abs() < 1e-9);
        assert_eq!(m.mean_response(PriorityBand::Middle), 0.0);
        assert!((m.mean_response_latency(LatencyClass::new(0)) - 120.0).abs() < 1e-9);
        assert!((m.mean_response_latency(LatencyClass::new(3)) - 60.0).abs() < 1e-9);
        assert_eq!(m.mean_response_latency(LatencyClass::new(2)), 0.0);
        assert_eq!(m.all_responses().values(), [120.0, 240.0, 60.0]);
        assert_eq!(m.energy_kwh, 12.5);
        assert_eq!(m.io_overhead_fraction, 0.0);
        assert_eq!(m.storage_peak_fraction, 0.0);
    }

    /// Records that look alike but count differently.
    #[test]
    fn fold_tells_look_alike_records_apart() {
        let none = RunCounts::default();
        let cases: [(&str, &[TraceRecord], RunCounts); 7] = [
            (
                "a corrupt-image re-read is not a restore retry",
                &[restore_fail("corrupt-image", true)],
                none,
            ),
            (
                "a transient re-read is",
                &[restore_fail("transient", true)],
                RunCounts {
                    restore_fail_retries: 1,
                    ..none
                },
            ),
            (
                "nvram-full is not a no-space kill",
                &[fallback("nvram-full")],
                RunCounts {
                    capacity_fallbacks: 1,
                    ..none
                },
            ),
            (
                "storage-full is",
                &[fallback("storage-full")],
                RunCounts {
                    capacity_fallbacks: 1,
                    no_space_kills: 1,
                    ..none
                },
            ),
            ("a dump eviction is not a kill", &[evict("dump")], none),
            (
                "a node-fail eviction is a failure eviction",
                &[evict("node-fail")],
                RunCounts {
                    failure_evictions: 1,
                    ..none
                },
            ),
            (
                "the dump-fail fallback after a final dump_fail counts once",
                &[dump_fail(false), fallback("dump-fail"), evict("dump-fail")],
                RunCounts {
                    dump_fail_kills: 1,
                    kills: 1,
                    ..none
                },
            ),
        ];
        for (rule, records, want) in cases {
            assert_eq!(fold(records), want, "{rule}");
        }
        assert_eq!(fold(&[dump_fail(true)]).dump_fail_retries, 1);
    }

    #[test]
    fn export_feeds_responses_in_band_order() {
        let mut a = RunLedger::default();
        let mut b = RunLedger::default();
        let jobs = [
            (PriorityBand::Production, 30),
            (PriorityBand::Free, 500),
            (PriorityBand::Middle, 90),
            (PriorityBand::Free, 7),
            (PriorityBand::Production, 1_000),
            (PriorityBand::Free, 60),
        ];
        for &(band, secs) in &jobs {
            a.record_response(
                band,
                LatencyClass::new(0),
                SimTime::ZERO,
                SimTime::from_secs(secs),
            );
        }
        // The same jobs finished band by band give the same estimate.
        for band in PriorityBand::ALL {
            for &(_, secs) in jobs.iter().filter(|(b, _)| *b == band) {
                b.record_response(
                    band,
                    LatencyClass::new(0),
                    SimTime::ZERO,
                    SimTime::from_secs(secs),
                );
            }
        }
        let stats = RunStats {
            events: 0,
            now: SimTime::ZERO,
            wall: std::time::Duration::ZERO,
        };
        let (mut ra, mut rb) = (MetricsRegistry::new(), MetricsRegistry::new());
        a.export(&mut ra, &stats, 0.0);
        b.export(&mut rb, &stats, 0.0);
        assert_eq!(ra.to_json(), rb.to_json());
        assert_eq!(ra.counter("scheduler.jobs_finished"), Some(6));
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = RunLedger::default().into_metrics(SimTime::ZERO, 0.0, &path());
        assert_eq!(m.waste_fraction(), 0.0);
        assert_eq!(m.cpu_overhead_fraction(), 0.0);
        assert_eq!(m.mean_response_overall(), 0.0);
        assert!(m.all_responses().is_empty());
    }
}
