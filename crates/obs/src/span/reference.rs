//! The `BTreeMap`-keyed collector [`super::SpanCollector`] replaced,
//! kept as a test reference with the critical-path and what-if walks that
//! read it (one `BTreeMap` of jobs per walk). It counts malformed records
//! and keeps the first, as the indexed collector does. The property
//! checks that the indexed collector keeps the same spans, lists them in
//! the same (ascending task id) order, and gives the same malformed count
//! and witness, node tallies, critical paths, what-if predictions, report
//! JSON and folded stacks on random streams with duplicate submits,
//! records before their submit, out-of-order and sparse task ids, and
//! moved, dropped and retimed records.

use std::collections::BTreeMap;

use cbp_telemetry::TraceRecord;
use proptest::prelude::*;

use super::{NodeStats, Phase, SegKind, SpanCollector, TaskSpan};
use crate::crit::{
    extract_job_paths, paths_to_folded, predicted_job_responses, JobPath, JobPaths, WhatIf,
};
use crate::ObsReport;

/// The previous `SpanCollector`, unchanged but for its name, its strict
/// mode (gone) and the witness: the index and reason of the first
/// malformed record.
#[derive(Debug, Default)]
struct TreeCollector {
    tasks: BTreeMap<u64, TaskSpan>,
    nodes: BTreeMap<u32, NodeStats>,
    records: u64,
    malformed: u64,
    first_malformed: Option<(u64, &'static str)>,
}

/// The span of `task` if a phase record at `t` may advance it, or why the
/// record is malformed: the task was never submitted, or `t` is earlier
/// than the start of its current phase.
fn advance(
    tasks: &mut BTreeMap<u64, TaskSpan>,
    task: u64,
    t: u64,
) -> Result<&mut TaskSpan, &'static str> {
    let span = tasks.get_mut(&task).ok_or("record before task_submit")?;
    if t < span.current.since() {
        return Err("record earlier than the start of the task's current phase");
    }
    Ok(span)
}

impl TreeCollector {
    fn bad(&mut self, task: u64, what: &'static str, _rec: &TraceRecord) {
        self.malformed += 1;
        self.first_malformed.get_or_insert((self.records - 1, what));
        if let Some(span) = self.tasks.get_mut(&task) {
            span.malformed += 1;
        }
    }

    fn node(&mut self, node: u32) -> &mut NodeStats {
        self.nodes.entry(node).or_default()
    }
    fn observe(&mut self, t: u64, rec: &TraceRecord) {
        self.records += 1;
        match *rec {
            TraceRecord::TaskSubmit {
                task,
                job,
                priority,
            } => {
                if self.tasks.contains_key(&task) {
                    self.bad(task, "duplicate task_submit", rec);
                    return;
                }
                self.tasks.insert(
                    task,
                    TaskSpan {
                        task,
                        job,
                        priority,
                        submit_us: t,
                        finish_us: None,
                        evictions: 0,
                        kills: 0,
                        dumps: 0,
                        restores: 0,
                        fallbacks: 0,
                        dump_fails: 0,
                        restore_fails: 0,
                        escalations: 0,
                        resumed_bytes: 0,
                        chunk_refetches: 0,
                        chain_truncations: 0,
                        malformed: 0,
                        segments: Vec::new(),
                        current: Phase::Queued { since: t },
                    },
                );
            }
            TraceRecord::TaskSchedule { task, restore, .. } => {
                let span = match advance(&mut self.tasks, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::Queued { since } = span.current else {
                    return self.bad(task, "task_schedule while not queued", rec);
                };
                if restore {
                    span.push(SegKind::Suspended, since, t);
                    span.current = Phase::Restoring { since: t };
                } else {
                    // A fresh start re-executes everything credited so far
                    // (the image, if any, was unusable).
                    for s in span.segments.iter_mut() {
                        if s.kind == SegKind::Run {
                            s.kind = SegKind::Lost;
                        }
                    }
                    span.push(SegKind::ReadyWait, since, t);
                    span.current = Phase::Running { since: t };
                }
            }
            TraceRecord::TaskFinish { task, node } => {
                let span = match advance(&mut self.tasks, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::Running { since } = span.current else {
                    return self.bad(task, "task_finish while not running", rec);
                };
                span.push(SegKind::Run, since, t);
                span.finish_us = Some(t);
                span.current = Phase::Done;
                // Held-back run segments (DumpDone credits) and abort-time
                // Lost segments were appended out of chronological order;
                // restore it. Non-empty intervals never overlap, so start
                // order is total.
                span.segments.sort_by_key(|s| s.start_us);
                let mut cursor = span.submit_us;
                for s in &span.segments {
                    assert_eq!(
                        s.start_us, cursor,
                        "segment timeline violated for task {task}: \
                         gap or overlap at {cursor} before {s:?}",
                    );
                    cursor = s.end_us;
                }
                assert_eq!(
                    cursor, t,
                    "segment timeline violated for task {task}: \
                     segments end at {cursor}, finish at {t}",
                );
                self.node(node).finishes += 1;
            }
            TraceRecord::TaskEvict { task, node, reason } => {
                let span = match advance(&mut self.tasks, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                span.evictions += 1;
                let hard = reason != "dump";
                if hard {
                    span.kills += 1;
                }
                let lost = match span.current {
                    Phase::Running { since } if hard => Some(span.push(SegKind::Lost, since, t)),
                    Phase::Running { since } => {
                        // reason == "dump": execution since the resume
                        // point is held back until the dump completes.
                        span.current = Phase::DumpWait {
                            since: t,
                            run: (since, t),
                        };
                        None
                    }
                    Phase::DumpWait { since, run } => {
                        // The in-flight dump was aborted: the held-back
                        // run and the dump time bought nothing.
                        let run = span.push(SegKind::Lost, run.0, run.1);
                        Some(run + span.push(SegKind::Lost, since, t))
                    }
                    Phase::Restoring { since } => Some(span.push(SegKind::Lost, since, t)),
                    Phase::Queued { .. } | Phase::Done => {
                        return self.bad(task, "task_evict while not placed", rec);
                    }
                };
                if let Some(lost) = lost {
                    span.current = Phase::Queued { since: t };
                    let ns = self.node(node);
                    ns.lost_us = ns.lost_us.saturating_add(lost);
                }
                let ns = self.node(node);
                ns.evictions += 1;
                if hard {
                    ns.kills += 1;
                }
            }
            TraceRecord::DumpDone {
                task,
                node,
                start_us,
            } => {
                let span = match advance(&mut self.tasks, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::DumpWait { since, run } = span.current else {
                    return self.bad(task, "dump_done without pending dump", rec);
                };
                // Split since..done at the device service start.
                let boundary = start_us.clamp(since, t);
                span.push(SegKind::Run, run.0, run.1);
                span.push(SegKind::DumpQueue, since, boundary);
                let dump_us = span.push(SegKind::Dump, boundary, t);
                span.dumps += 1;
                span.current = Phase::Queued { since: t };
                let ns = self.node(node);
                ns.dumps += 1;
                ns.dump_us = ns.dump_us.saturating_add(dump_us);
            }
            TraceRecord::RestoreDone {
                task,
                node,
                start_us,
            } => {
                let span = match advance(&mut self.tasks, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::Restoring { since } = span.current else {
                    return self.bad(task, "restore_done without pending restore", rec);
                };
                let boundary = start_us.clamp(since, t);
                span.push(SegKind::RestoreQueue, since, boundary);
                let restore_us = span.push(SegKind::Restore, boundary, t);
                span.restores += 1;
                span.current = Phase::Running { since: t };
                let ns = self.node(node);
                ns.restores += 1;
                ns.restore_us = ns.restore_us.saturating_add(restore_us);
            }
            TraceRecord::DumpFallback { task, .. } => {
                // Always followed by the kill's task_evict (or, on node
                // failure, preceded by it); only counted here.
                if let Some(span) = self.tasks.get_mut(&task) {
                    span.fallbacks += 1;
                }
            }
            TraceRecord::DumpFail { task, node, .. } => {
                let span = match advance(&mut self.tasks, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::DumpWait { since, run } = span.current else {
                    return self.bad(task, "dump_fail without pending dump", rec);
                };
                // The failed attempt (and any backoff before it) is
                // recovery overhead; the held-back run stays held back
                // for the next attempt or the fallback kill.
                let burnt = span.push(SegKind::Retry, since, t);
                span.dump_fails += 1;
                span.current = Phase::DumpWait { since: t, run };
                let ns = self.node(node);
                ns.retry_us = ns.retry_us.saturating_add(burnt);
            }
            TraceRecord::RestoreFail {
                task,
                node,
                will_retry,
                ..
            } => {
                let span = match advance(&mut self.tasks, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::Restoring { since } = span.current else {
                    return self.bad(task, "restore_fail without pending restore", rec);
                };
                let burnt = span.push(SegKind::Retry, since, t);
                span.restore_fails += 1;
                span.current = if will_retry {
                    // Next attempt (e.g. from a surviving HDFS replica)
                    // begins now, on the same placement.
                    Phase::Restoring { since: t }
                } else {
                    // Restart from scratch: the task re-queues; the
                    // following task_schedule(restore=false) reclassifies
                    // the credited run as lost.
                    Phase::Queued { since: t }
                };
                let ns = self.node(node);
                ns.retry_us = ns.retry_us.saturating_add(burnt);
            }
            TraceRecord::AmEscalate { task, .. } => {
                // The victim keeps running until the forced kill's
                // task_evict arrives; only counted here.
                if let Some(span) = self.tasks.get_mut(&task) {
                    span.escalations += 1;
                }
            }
            TraceRecord::ReplicationRepair {
                node,
                blocks,
                bytes,
            } => {
                let ns = self.node(node);
                ns.repairs += blocks.min(u32::MAX as u64) as u32;
                ns.repair_bytes += bytes;
            }
            TraceRecord::ResumeDump {
                task,
                node,
                resumed_bytes,
                ..
            } => {
                // The time the resume saved is already reflected in the
                // shorter retry span (dump_fail → dump_done); credit the
                // avoided rewrite volume without touching the phase
                // machine, so the 8-way tiling stays exact.
                if let Some(span) = self.tasks.get_mut(&task) {
                    span.resumed_bytes += resumed_bytes;
                }
                self.node(node).resumed_bytes += resumed_bytes;
            }
            TraceRecord::ChunkRefetch { task, ok, .. } => {
                // A successful targeted repair; its transfer time is inside
                // the surrounding restore span. Failed refetches are
                // followed by a restore_fail/chain_truncate that carries
                // the timing, so this is counter-only either way.
                if ok {
                    if let Some(span) = self.tasks.get_mut(&task) {
                        span.chunk_refetches += 1;
                    }
                }
            }
            TraceRecord::ChainTruncate { task, .. } => {
                // Always paired with a restore_fail(will_retry=true) that
                // re-arms the restoring phase; only counted here.
                if let Some(span) = self.tasks.get_mut(&task) {
                    span.chain_truncations += 1;
                }
            }
            // Bookkeeping-only records: the span machine does not need
            // them (dump/restore spans close on the *_done records, and
            // node-failure/crash evictions arrive as task_evict — a
            // "node-crash" reason classifies as a hard kill like any
            // other non-dump eviction, so chaos and breaker events keep
            // the 8-way tiling exact without extra state here). The
            // image-lifecycle records (gc_pass/image_evict/image_spill/
            // no_space) are bookkeeping too: an evicted chain costs
            // nothing until the task is re-placed (its scratch restart
            // arrives as a plain schedule without restore), a spill's
            // cost is inside the dump span it annotates, and a no-space
            // kill's waste lands with the matching task_evict.
            TraceRecord::DumpStart { .. }
            | TraceRecord::RestoreStart { .. }
            | TraceRecord::PreemptDecision { .. }
            | TraceRecord::NodeFail { .. }
            | TraceRecord::NodeRecover { .. }
            | TraceRecord::NodeDown { .. }
            | TraceRecord::NodeUp { .. }
            | TraceRecord::PartitionStart { .. }
            | TraceRecord::PartitionEnd { .. }
            | TraceRecord::BreakerOpen { .. }
            | TraceRecord::BreakerClose { .. }
            | TraceRecord::GcPass { .. }
            | TraceRecord::ImageEvict { .. }
            | TraceRecord::ImageSpill { .. }
            | TraceRecord::NoSpace { .. }
            | TraceRecord::ChunkDone { .. }
            | TraceRecord::ChunkCorrupt { .. }
            | TraceRecord::QueueDepth { .. } => {}
        }
    }

    /// A [`SpanCollector`] holding the same spans, submitted in ascending
    /// task id, so the report code reads them in storage order.
    fn in_id_order(&self) -> SpanCollector {
        let mut c = SpanCollector::new();
        for (at, span) in self.tasks.values().enumerate() {
            c.index.insert(span.task, at as u32);
            c.spans.push(span.clone());
        }
        c.nodes = self.nodes.clone();
        c.records = self.records;
        c.malformed = self.malformed;
        c
    }
}

/// The previous `extract_job_paths`.
fn tree_job_paths(c: &TreeCollector) -> Result<JobPaths, String> {
    // Group tasks by job (BTreeMap: deterministic job order).
    let mut jobs: BTreeMap<u64, Vec<&TaskSpan>> = BTreeMap::new();
    for span in c.tasks.values() {
        jobs.entry(span.job).or_default().push(span);
    }
    let mut paths = Vec::with_capacity(jobs.len());
    let mut skipped_jobs = 0u64;
    for (job, tasks) in jobs {
        let complete = tasks.iter().all(|t| t.finished() && t.malformed == 0);
        if !complete {
            skipped_jobs += 1;
            continue;
        }
        let job_submit_us = tasks.iter().map(|t| t.submit_us).min().expect("non-empty");
        // Latest finish wins; BTreeMap order makes the lowest task id
        // the tie-break.
        let crit = tasks
            .iter()
            .max_by_key(|t| (t.finish_us.expect("finished"), std::cmp::Reverse(t.task)))
            .expect("non-empty");
        let path = JobPath {
            job,
            task: crit.task,
            priority: crit.priority,
            submit_us: crit.submit_us,
            job_submit_us,
            finish_us: crit.finish_us.expect("finished"),
            segments: crit.segments.clone(),
        };
        path.check_tiling()?;
        paths.push(path);
    }
    Ok(JobPaths {
        paths,
        skipped_jobs,
    })
}

/// The previous `predicted_job_responses`.
fn tree_predictions(c: &TreeCollector, w: WhatIf) -> BTreeMap<u64, u64> {
    // (job) -> (earliest submit, latest predicted finish, complete?)
    let mut jobs: BTreeMap<u64, (u64, u64, bool)> = BTreeMap::new();
    for span in c.tasks.values() {
        let entry = jobs.entry(span.job).or_insert((u64::MAX, 0, true));
        entry.0 = entry.0.min(span.submit_us);
        if !span.finished() || span.malformed > 0 {
            entry.2 = false;
            continue;
        }
        let kept: u64 = span
            .segments
            .iter()
            .filter(|s| !w.removes(s.kind))
            .map(|s| s.dur_us())
            .sum();
        entry.1 = entry.1.max(span.submit_us + kept);
    }
    jobs.into_iter()
        .filter(|(_, (_, _, complete))| *complete)
        .map(|(job, (submit, finish, _))| (job, finish.saturating_sub(submit)))
        .collect()
}

// ---- differential property ----------------------------------------------

/// SplitMix64, so a failing case replays from its printed seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Appends one task's records, each a few µs after the one before, so
/// tasks tie.
struct Life<'a> {
    rng: &'a mut Rng,
    out: &'a mut Vec<(u64, TraceRecord)>,
    t: u64,
}

impl Life<'_> {
    fn emit(&mut self, rec: TraceRecord) {
        self.t += self.rng.below(6);
        self.out.push((self.t, rec));
    }

    /// A device start time at or shortly after now.
    fn start(&mut self) -> u64 {
        self.t + self.rng.below(4)
    }
}

/// One task's lifecycle: submit, then placements, kills, dumps (some
/// failing, resumed or falling back to a kill), restores (some failing)
/// and side records, usually up to the finish.
fn lifecycle(life: &mut Life<'_>, task: u64, job: u64) {
    let node = life.rng.below(4) as u32;
    let priority = life.rng.below(12) as u8;
    life.emit(TraceRecord::TaskSubmit {
        task,
        job,
        priority,
    });
    let mut restore = false;
    let mut running = false;
    for _ in 0..=life.rng.below(4) {
        life.emit(TraceRecord::TaskSchedule {
            task,
            node,
            restore,
        });
        running = true;
        if restore {
            if life.rng.chance(30) {
                let ok = life.rng.chance(50);
                life.emit(TraceRecord::ChunkRefetch {
                    task,
                    node,
                    chunk: 0,
                    ok,
                });
            }
            let will_retry = life.rng.chance(60);
            if life.rng.chance(25) {
                life.emit(TraceRecord::RestoreFail {
                    task,
                    node,
                    attempt: 1,
                    reason: "transient",
                    will_retry,
                });
                if will_retry {
                    life.emit(TraceRecord::ChainTruncate {
                        task,
                        node,
                        dropped: 1,
                        kept: 1,
                    });
                } else {
                    life.emit(TraceRecord::TaskSchedule {
                        task,
                        node,
                        restore: false,
                    });
                }
            }
            if !life
                .out
                .last()
                .is_some_and(|r| matches!(r.1, TraceRecord::TaskSchedule { restore: false, .. }))
            {
                let start_us = life.start();
                life.emit(TraceRecord::RestoreDone {
                    task,
                    node,
                    start_us,
                });
            }
        }
        restore = false;
        match life.rng.below(4) {
            0 => {
                if life.rng.chance(30) {
                    life.emit(TraceRecord::AmEscalate {
                        task,
                        node,
                        waited_us: 1,
                    });
                }
                let reason = life.rng.pick(&["kill", "node-crash"]);
                life.emit(TraceRecord::TaskEvict { task, node, reason });
            }
            1 => {
                life.emit(TraceRecord::TaskEvict {
                    task,
                    node,
                    reason: "dump",
                });
                if life.rng.chance(30) {
                    life.emit(TraceRecord::DumpFail {
                        task,
                        node,
                        attempt: 1,
                        will_retry: true,
                    });
                    let resumed_bytes = life.rng.below(1 << 20);
                    life.emit(TraceRecord::ResumeDump {
                        task,
                        node,
                        resumed_bytes,
                        total_bytes: 1 << 20,
                    });
                }
                if life.rng.chance(20) {
                    life.emit(TraceRecord::DumpFallback {
                        task,
                        node,
                        reason: "no-capacity",
                    });
                    life.emit(TraceRecord::TaskEvict {
                        task,
                        node,
                        reason: "kill",
                    });
                } else {
                    let start_us = life.start();
                    life.emit(TraceRecord::DumpDone {
                        task,
                        node,
                        start_us,
                    });
                    restore = life.rng.chance(80);
                }
            }
            _ => break,
        }
        running = false;
    }
    if !running && life.rng.chance(90) {
        life.emit(TraceRecord::TaskSchedule {
            task,
            node,
            restore: false,
        });
        running = true;
    }
    if running && life.rng.chance(90) {
        life.emit(TraceRecord::TaskFinish { task, node });
    }
    if life.rng.chance(10) {
        let bytes = life.rng.below(1 << 30);
        life.emit(TraceRecord::ReplicationRepair {
            node,
            blocks: 3,
            bytes,
        });
    }
}

/// A record stream over a few jobs of tasks with sparse, unordered ids,
/// interleaved by time (tasks in random order at equal times), then
/// damaged.
fn stream(rng: &mut Rng) -> Vec<(u64, TraceRecord)> {
    let mut lives = Vec::new();
    let jobs = 1 + rng.below(4);
    for job in 0..jobs {
        let job = job * rng.pick(&[1, 7, 1 << 32]);
        for i in 0..rng.below(8) {
            let task = match rng.below(3) {
                0 => (job << 32) | rng.below(1 << 20),
                1 => rng.next(),
                _ => job * 64 + i,
            };
            let mut out = Vec::new();
            let t = rng.below(20);
            lifecycle(
                &mut Life {
                    rng,
                    out: &mut out,
                    t,
                },
                task,
                job,
            );
            let tie = rng.next();
            lives.extend(out.into_iter().map(|(t, rec)| (t, tie, rec)));
        }
    }
    lives.sort_by_key(|&(t, tie, _)| (t, tie));
    let mut out: Vec<(u64, TraceRecord)> = lives.into_iter().map(|(t, _, rec)| (t, rec)).collect();
    let damage = if rng.chance(40) { 0 } else { 1 + rng.below(4) };
    for _ in 0..damage {
        if out.is_empty() {
            break;
        }
        let i = rng.below(out.len() as u64) as usize;
        let j = rng.below(out.len() as u64) as usize;
        match rng.below(5) {
            // Dropped.
            0 => {
                out.remove(i);
            }
            // Duplicated (a duplicate submit, among others).
            1 => {
                let r = out[i];
                out.insert(j, r);
            }
            // Moved, possibly before its task's submit.
            2 => {
                let r = out.remove(i);
                out.insert(j.min(out.len()), r);
            }
            // Retimed.
            3 => out[i].0 = rng.below(60),
            // A record for a task never submitted.
            _ => out.insert(
                j,
                (
                    rng.below(60),
                    TraceRecord::TaskSchedule {
                        task: rng.next(),
                        node: 0,
                        restore: false,
                    },
                ),
            ),
        }
    }
    out
}

fn debug<T: std::fmt::Debug>(xs: impl IntoIterator<Item = T>) -> Vec<String> {
    xs.into_iter().map(|x| format!("{x:?}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_collector_matches_tree_collector(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let records = stream(&mut rng);
        let mut tree = TreeCollector::default();
        let mut indexed = SpanCollector::new();
        for (t, rec) in &records {
            tree.observe(*t, rec);
            indexed.observe(*t, rec);
        }

        prop_assert_eq!(indexed.records(), tree.records, "seed {}", seed);
        prop_assert_eq!(indexed.malformed(), tree.malformed, "seed {}", seed);
        prop_assert_eq!(
            indexed.first_malformed().map(|m| (m.index, m.reason)),
            tree.first_malformed,
            "seed {}", seed
        );
        prop_assert_eq!(debug(indexed.tasks()), debug(tree.tasks.values()), "seed {}", seed);
        prop_assert_eq!(indexed.tasks().len(), tree.tasks.len(), "seed {}", seed);
        for (id, span) in &tree.tasks {
            prop_assert_eq!(debug(indexed.task(*id)), debug(Some(span)), "seed {}", seed);
        }
        prop_assert_eq!(debug(indexed.nodes()), debug(&tree.nodes), "seed {}", seed);

        let paths = extract_job_paths(&indexed);
        let tree_paths = tree_job_paths(&tree);
        prop_assert_eq!(format!("{paths:?}"), format!("{tree_paths:?}"), "seed {}", seed);
        if let (Ok(paths), Ok(tree_paths)) = (paths, tree_paths) {
            prop_assert_eq!(
                paths_to_folded(&paths.paths),
                paths_to_folded(&tree_paths.paths),
                "seed {}", seed
            );
        }
        for w in WhatIf::ALL {
            prop_assert_eq!(
                predicted_job_responses(&indexed, w),
                tree_predictions(&tree, w),
                "seed {}", seed
            );
        }

        let json = |c: &SpanCollector| {
            ObsReport::build(c, 3).with_crit(c).map(|r| r.to_json())
        };
        prop_assert_eq!(json(&indexed), json(&tree.in_id_order()), "seed {}", seed);
    }
}

#[test]
fn streams_cover_the_collector_cases() {
    let (mut unordered, mut malformed, mut dumped, mut paths) = (0, 0, 0, 0);
    for seed in 0..256 {
        let mut c = SpanCollector::new();
        for (t, rec) in stream(&mut Rng(seed)) {
            c.observe(t, &rec);
        }
        unordered += usize::from(c.unordered);
        malformed += usize::from(c.malformed() > 0);
        dumped += c
            .tasks()
            .filter(|s| s.finished() && s.segments.iter().any(|s| s.kind == SegKind::Dump))
            .count();
        paths += extract_job_paths(&c).map_or(0, |p| p.paths.len());
    }
    assert!(unordered > 64, "{unordered} streams with unordered ids");
    assert!(malformed > 64, "{malformed} streams with malformed records");
    assert!(dumped > 100, "{dumped} finished tasks with a dump");
    assert!(paths > 100, "{paths} critical paths");
}
