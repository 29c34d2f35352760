//! Run metrics: everything the paper's figures report.

use std::collections::BTreeMap;

use cbp_simkit::stats::Samples;
use cbp_simkit::{RunStats, SimDuration, SimTime};
use cbp_telemetry::{MetricsRegistry, StreamingQuantiles, TimeSeries};
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
/// of them keeps is 0 under the other.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Total simulated time (first submit → last event).
    pub makespan_secs: f64,
    /// Jobs that completed.
    pub jobs_finished: u64,
    /// Tasks that completed.
    pub tasks_finished: u64,
    /// Preemption events: `kills + checkpoints`.
    pub preemptions: u64,
    /// Victims killed.
    pub kills: u64,
    /// Victims suspended (checkpoint dumps started).
    pub checkpoints: u64,
    /// Of which incremental dumps.
    pub incremental_checkpoints: u64,
    /// Restores performed.
    pub restores: u64,
    /// Remote restores (on a node other than the checkpoint origin).
    pub remote_restores: u64,
    /// Dumps that fell back to kill because checkpoint storage was full.
    pub capacity_fallbacks: u64,
    /// Bytes reclaimed by lifecycle GC passes (leaked reservations and
    /// dead chains collected under capacity pressure).
    pub gc_reclaimed_bytes: u64,
    /// Live checkpoint chains evicted by the lifecycle manager to make
    /// room for a higher-value dump (the evicted task restarts from
    /// scratch on its next placement).
    pub evicted_chains: u64,
    /// Dumps redirected to a remote node's device because the local
    /// device had no headroom (lifecycle spill step).
    pub spill_dumps: u64,
    /// Victims killed because the full degradation ladder (GC → evict →
    /// spill) still could not find space (`DumpFallback("no-space")`).
    /// With lifecycle disabled this counts the bare capacity kills, so
    /// the two modes are directly comparable.
    pub no_space_kills: u64,
    /// Containers evicted by node failures (not preemption).
    pub failure_evictions: u64,
    /// Containers evicted by chaos-plan node/rack crashes (failure-domain
    /// injection, counted separately from organic MTBF failures).
    pub crash_evictions: u64,
    /// Preemption victims killed because the checkpoint-path circuit
    /// breaker was open (`DumpFallback("breaker-open")`).
    pub breaker_open_kills: u64,
    /// Total breaker-open seconds summed over every per-node breaker and
    /// the global one (time the checkpoint path was considered down).
    pub breaker_open_secs: f64,
    /// Checkpoint chains destroyed by node failures (local-FS images on the
    /// failed node; HDFS chains that lost a block past replication's reach).
    pub images_lost_to_failures: u64,
    /// Injected dump failures that were retried (fault injection only).
    pub dump_fail_retries: u64,
    /// Dumps abandoned after exhausting their retry budget (the victim
    /// fell back to a hard kill).
    pub dump_fail_kills: u64,
    /// Injected restore failures that were retried from a surviving
    /// replica.
    pub restore_fail_retries: u64,
    /// Restores abandoned for good (corrupt image, lost blocks or
    /// exhausted retries): the task restarted from scratch.
    pub scratch_restarts: u64,
    /// Interrupted dumps that resumed from their last durable chunk
    /// instead of rewriting from byte zero (resume enabled only).
    pub resumed_dumps: u64,
    /// Bytes those resumed dumps did *not* have to rewrite (the durable
    /// prefix credited by chunked resume).
    pub resumed_bytes: u64,
    /// Corrupt chunks successfully re-fetched from a DFS replica during
    /// restore validation (targeted repair instead of whole-image loss).
    pub chunk_refetches: u64,
    /// Image chains truncated to their longest valid prefix after an
    /// unrepairable chunk (restore continued from an older image).
    pub chain_truncations: u64,
    /// Scratch restarts forced specifically by integrity loss (no valid
    /// prefix survived). A subset of `scratch_restarts`.
    pub integrity_scratch_restarts: u64,
    /// CPU-hours burnt inside failed dump/restore attempts and their
    /// rewrites (part of wasted CPU).
    pub retry_overhead_cpu_hours: f64,
    /// HDFS blocks re-replicated after datanode failures.
    pub dfs_blocks_repaired: u64,
    /// Bytes copied by HDFS re-replication repairs.
    pub dfs_repair_bytes: u64,
    /// HDFS blocks whose every replica died (data loss).
    pub dfs_blocks_lost: u64,
    /// Dumps aborted by the YARN NodeManager's grace-period force-kill.
    pub force_kills: u64,
    /// Preemption requests the YARN ResourceManager escalated to kills
    /// because the ApplicationMaster stayed unresponsive (fault injection).
    pub am_escalations: u64,
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
}

impl PassWork {
    /// The counters as `(name, value)` pairs, in a fixed order.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("passes", self.passes),
            ("keys_scanned", self.keys_scanned),
            ("keys_visited", self.keys_visited),
            ("keys_jumped", self.keys_jumped),
            ("walk_draws", self.walk_draws),
            ("searches", self.searches),
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

/// The accumulator both simulators write a run into: the counters and
/// CPU-second sums, the response samples per band and per latency class,
/// and the counters only one simulator keeps (0 under the other).
/// [`RunLedger::export`] sets the registry keys the simulators share and
/// [`RunLedger::into_metrics`] turns the ledger into the run's
/// [`RunMetrics`].
#[derive(Debug, Default)]
pub struct RunLedger {
    /// Hard kills (`scheduler.kills`): the `task_evict` records whose
    /// reason is not `dump`, except evictions by a node that went down.
    /// `node-crash` evictions count as [`RunLedger::crash_evictions`]
    /// and ClusterSim's `node-fail` evictions as
    /// [`RunLedger::failure_evictions`], so the three counters sum to the
    /// trace's hard-kill count.
    pub kills: u64,
    /// Checkpoint dumps started.
    pub checkpoints: u64,
    /// Restores completed.
    pub restores: u64,
    /// Restores started on a node other than the checkpoint origin.
    pub remote_restores: u64,
    /// Containers evicted by fault-plan node or rack crashes.
    pub crash_evictions: u64,
    /// Tasks that completed.
    pub tasks_finished: u64,
    /// Core-seconds of completed work.
    pub useful_cpu_secs: f64,
    /// Core-seconds of progress lost to kills, crashes and scratch
    /// restarts (re-execution waste).
    pub kill_lost_cpu_secs: f64,
    /// Core-seconds spent holding resources during dumps.
    pub dump_overhead_cpu_secs: f64,
    /// Core-seconds spent holding resources during restores.
    pub restore_overhead_cpu_secs: f64,
    /// ClusterSim: containers evicted by MTBF node failures.
    pub failure_evictions: u64,
    /// ClusterSim: checkpoint chains destroyed by node failures.
    pub images_lost_to_failures: u64,
    /// ClusterSim: injected dump failures that were retried.
    pub dump_fail_retries: u64,
    /// ClusterSim: injected restore failures that were retried.
    pub restore_fail_retries: u64,
    /// ClusterSim: restores abandoned for good (the task restarted from
    /// scratch).
    pub scratch_restarts: u64,
    /// ClusterSim: core-seconds burnt inside failed dump/restore attempts
    /// and their rewrites.
    pub retry_cpu_secs: f64,
    /// ClusterSim: HDFS blocks re-replicated after datanode failures.
    pub dfs_blocks_repaired: u64,
    /// ClusterSim: bytes copied by HDFS re-replication.
    pub dfs_repair_bytes: u64,
    /// ClusterSim: HDFS blocks whose every replica died.
    pub dfs_blocks_lost: u64,
    /// YarnSim: dumps aborted by the NodeManager's grace-period
    /// force-kill.
    pub force_kills: u64,
    /// YarnSim: preemption requests escalated to kills because the
    /// ApplicationMaster stayed unresponsive.
    pub am_escalations: u64,
    /// Response times per band, seconds, in finish order.
    responses: BTreeMap<PriorityBand, Samples>,
    /// Response times per latency class, seconds, in finish order.
    latency_responses: BTreeMap<u8, Samples>,
}

impl RunLedger {
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

    /// Charges a hard kill that lost `lost` of progress on `cores` cores.
    pub fn charge_kill(&mut self, lost: SimDuration, cores: f64) {
        self.kills += 1;
        self.kill_lost_cpu_secs += lost.as_secs_f64() * cores;
    }

    /// Charges a checkpoint dump whose service took `duration` on `cores`
    /// cores.
    pub fn charge_dump(&mut self, duration: SimDuration, cores: f64) {
        self.checkpoints += 1;
        self.dump_overhead_cpu_secs += duration.as_secs_f64() * cores;
    }

    /// Charges a completed restore whose service took `duration` on
    /// `cores` cores. Remote restores are counted where they start.
    pub fn charge_restore(&mut self, duration: SimDuration, cores: f64) {
        self.restores += 1;
        self.restore_overhead_cpu_secs += duration.as_secs_f64() * cores;
    }

    /// Sets the registry keys both simulators share for a run the engine
    /// ended with `stats`: the engine's event count, the `scheduler.*`
    /// counters, makespan and response quantiles, crash evictions, the
    /// `cpu.*_hours` sums and the energy. The responses are fed to the P²
    /// estimators band by band (Free, Middle, Production), each band in
    /// finish order; the estimate depends on that order.
    pub fn export(&self, reg: &mut MetricsRegistry, stats: &RunStats, energy_kwh: f64) {
        reg.set_counter("engine.events", "events", stats.events);
        reg.set_counter("scheduler.kills", "ops", self.kills);
        reg.set_counter("scheduler.checkpoints", "ops", self.checkpoints);
        reg.set_counter("scheduler.restores", "ops", self.restores);
        reg.set_counter("scheduler.remote_restores", "ops", self.remote_restores);
        reg.set_counter("scheduler.tasks_finished", "ops", self.tasks_finished);
        reg.set_counter("scheduler.jobs_finished", "ops", self.jobs_finished());
        reg.set_counter("faults.crash_evictions", "ops", self.crash_evictions);
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
    /// `energy_kwh`. The checkpoint counters, incremental dumps, I/O busy
    /// and peak storage fractions and breaker-open seconds come from the
    /// run's checkpoint path `ckpt`.
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
        let c = &ckpt.counters;
        RunMetrics {
            makespan_secs: makespan.as_secs_f64(),
            jobs_finished: self.jobs_finished(),
            tasks_finished: self.tasks_finished,
            preemptions: self.kills + self.checkpoints,
            kills: self.kills,
            checkpoints: self.checkpoints,
            incremental_checkpoints: ckpt.incremental_dumps(),
            restores: self.restores,
            remote_restores: self.remote_restores,
            capacity_fallbacks: c.capacity_fallbacks,
            gc_reclaimed_bytes: c.gc_reclaimed_bytes,
            evicted_chains: c.evicted_chains,
            spill_dumps: c.spill_dumps,
            no_space_kills: c.no_space_kills,
            failure_evictions: self.failure_evictions,
            crash_evictions: self.crash_evictions,
            breaker_open_kills: c.breaker_open_kills,
            breaker_open_secs: ckpt.breaker_open_secs(makespan),
            images_lost_to_failures: self.images_lost_to_failures,
            dump_fail_retries: self.dump_fail_retries,
            dump_fail_kills: c.dump_fail_kills,
            restore_fail_retries: self.restore_fail_retries,
            scratch_restarts: self.scratch_restarts,
            resumed_dumps: c.resumed_dumps,
            resumed_bytes: c.resumed_bytes,
            chunk_refetches: c.chunk_refetches,
            chain_truncations: c.chain_truncations,
            integrity_scratch_restarts: c.integrity_scratch_restarts,
            retry_overhead_cpu_hours: self.retry_cpu_secs / 3600.0,
            dfs_blocks_repaired: self.dfs_blocks_repaired,
            dfs_repair_bytes: self.dfs_repair_bytes,
            dfs_blocks_lost: self.dfs_blocks_lost,
            force_kills: self.force_kills,
            am_escalations: self.am_escalations,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt_path::CkptCounters;
    use cbp_checkpoint::Criu;
    use cbp_storage::MediaSpec;

    /// A two-node checkpoint path with no faults and `counters` set.
    fn path(counters: CkptCounters) -> CkptPath {
        let mut path = CkptPath::new(
            2,
            MediaSpec::ssd(),
            Criu::new(true),
            None,
            None,
            None,
            false,
        );
        path.counters = counters;
        path
    }

    #[test]
    fn ledger_aggregates_into_metrics() {
        let mut l = RunLedger::default();
        l.charge_kill(SimDuration::from_secs(3600), 2.0);
        l.charge_dump(SimDuration::from_secs(1800), 1.0);
        l.charge_restore(SimDuration::from_secs(1800), 1.0);
        l.remote_restores += 1;
        l.useful_cpu_secs = 3600.0 * 6.0;
        l.crash_evictions = 2;
        l.force_kills = 3;
        l.am_escalations = 4;
        let k = CkptCounters {
            breaker_open_kills: 1,
            gc_reclaimed_bytes: 1_000_000,
            evicted_chains: 3,
            spill_dumps: 4,
            no_space_kills: 1,
            resumed_dumps: 2,
            resumed_bytes: 128_000_000,
            chunk_refetches: 5,
            chain_truncations: 1,
            integrity_scratch_restarts: 1,
            ..CkptCounters::default()
        };
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
        let m = l.into_metrics(SimTime::from_secs(1000), 12.5, &path(k));

        assert_eq!(m.kills, 1);
        assert_eq!(m.checkpoints, 1);
        assert_eq!(m.restores, 1);
        assert_eq!(m.remote_restores, 1);
        assert_eq!(m.preemptions, 2);
        assert_eq!(m.crash_evictions, 2);
        assert_eq!(m.force_kills, 3);
        assert_eq!(m.am_escalations, 4);
        assert_eq!(m.breaker_open_kills, 1);
        assert_eq!(m.breaker_open_secs, 0.0);
        assert_eq!(m.gc_reclaimed_bytes, 1_000_000);
        assert_eq!(m.evicted_chains, 3);
        assert_eq!(m.spill_dumps, 4);
        assert_eq!(m.no_space_kills, 1);
        assert_eq!(m.resumed_dumps, 2);
        assert_eq!(m.resumed_bytes, 128_000_000);
        assert_eq!(m.chunk_refetches, 5);
        assert_eq!(m.chain_truncations, 1);
        assert_eq!(m.integrity_scratch_restarts, 1);
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
        let m =
            RunLedger::default().into_metrics(SimTime::ZERO, 0.0, &path(CkptCounters::default()));
        assert_eq!(m.waste_fraction(), 0.0);
        assert_eq!(m.cpu_overhead_fraction(), 0.0);
        assert_eq!(m.mean_response_overall(), 0.0);
        assert!(m.all_responses().is_empty());
    }
}
