//! Per-job critical paths: the ordered segment chain of the task that
//! determines each job's completion time.

use super::whatif::WhatIf;
use crate::span::{Band, ByJob, Segment, SpanCollector, TaskSpan};

/// The causal chain bounding one job's completion time.
///
/// Both simulators submit every task of a job at the job's submission
/// instant, so the completion-determining task's own submit equals the
/// job submit and the chain spans the job's full response interval.
#[derive(Debug, Clone)]
pub struct JobPath {
    /// Job id.
    pub job: u64,
    /// The completion-determining task: latest finish in the job (ties
    /// broken toward the lowest task id).
    pub task: u64,
    /// That task's scheduler priority (decides the band).
    pub priority: u8,
    /// Start of the chain: the critical task's submit time (µs).
    pub submit_us: u64,
    /// Earliest submit across the job's tasks (µs); equals `submit_us`
    /// on traces from both in-repo simulators.
    pub job_submit_us: u64,
    /// Job completion time: the critical task's finish (µs).
    pub finish_us: u64,
    /// The critical task's ordered segment timeline.
    pub segments: Vec<Segment>,
}

impl JobPath {
    /// The band the critical task's priority falls in.
    pub fn band(&self) -> Band {
        Band::of_priority(self.priority)
    }

    /// Job response time (finish minus earliest submit, µs).
    pub fn response_us(&self) -> u64 {
        self.finish_us - self.job_submit_us
    }

    /// Verifies the tiling invariant: the segments partition
    /// `submit_us..finish_us` exactly — consecutive, gap-free, and
    /// covering the whole interval.
    pub fn check_tiling(&self) -> Result<(), String> {
        check_tiling(self.job, self.submit_us, self.finish_us, &self.segments)
    }
}

/// [`JobPath::check_tiling`] for job `job`'s chain `segments`.
fn check_tiling(
    job: u64,
    submit_us: u64,
    finish_us: u64,
    segments: &[Segment],
) -> Result<(), String> {
    let mut cursor = submit_us;
    for s in segments {
        if s.start_us != cursor {
            return Err(format!(
                "job {}: critical path has a gap or overlap at {} µs \
                 (next segment {:?} starts at {})",
                job, cursor, s.kind, s.start_us
            ));
        }
        if s.end_us <= s.start_us {
            return Err(format!(
                "job {}: empty or inverted segment {:?} at {} µs",
                job, s.kind, s.start_us
            ));
        }
        cursor = s.end_us;
    }
    if cursor != finish_us {
        return Err(format!(
            "job {}: critical path ends at {} µs but the job finishes at {} µs",
            job, cursor, finish_us
        ));
    }
    Ok(())
}

/// What one walk over the spans learns about a job: everything critical
/// paths and the what-if models need.
#[derive(Debug, Clone)]
pub(crate) struct JobWalk<'a> {
    pub(crate) job: u64,
    /// Earliest submit across the job's tasks (µs).
    pub(crate) submit_us: u64,
    /// Every task finished and none carried malformed records.
    pub(crate) complete: bool,
    /// The completion-determining task among the finished ones and its
    /// finish (µs): latest finish, lowest task id on ties.
    pub(crate) crit: Option<(&'a TaskSpan, u64)>,
    /// Latest predicted finish of a finished task under each
    /// counterfactual, in [`WhatIf::ALL`] order (µs; 0 if none).
    pub(crate) what_if_finish_us: [u64; 3],
}

impl JobWalk<'_> {
    /// The critical task of a complete job and its finish time, once its
    /// segment chain passed the tiling check; `None` if the job is not
    /// complete.
    pub(crate) fn critical(&self) -> Option<Result<(&TaskSpan, u64), String>> {
        let (crit, finish_us) = self.crit.filter(|_| self.complete)?;
        Some(
            check_tiling(self.job, crit.submit_us, finish_us, &crit.segments)
                .map(|()| (crit, finish_us)),
        )
    }

    /// The job's critical path; `None` if the job is not complete.
    fn path(&self) -> Option<Result<JobPath, String>> {
        Some(self.critical()?.map(|(crit, finish_us)| JobPath {
            job: self.job,
            task: crit.task,
            priority: crit.priority,
            submit_us: crit.submit_us,
            job_submit_us: self.submit_us,
            finish_us,
            segments: crit.segments.clone(),
        }))
    }
}

/// Walks the collector's spans once, in ascending task id, and returns
/// every job's [`JobWalk`] in ascending job id.
pub(crate) fn walk_jobs(collector: &SpanCollector) -> Vec<JobWalk<'_>> {
    let mut jobs = ByJob::new();
    for span in collector.tasks() {
        let job = jobs.get(span.job, || JobWalk {
            job: span.job,
            submit_us: u64::MAX,
            complete: true,
            crit: None,
            what_if_finish_us: [0; 3],
        });
        job.submit_us = job.submit_us.min(span.submit_us);
        let Some(finish) = span.finish_us.filter(|_| span.malformed == 0) else {
            job.complete = false;
            continue;
        };
        let mut kept = [0u64; 3];
        for s in &span.segments {
            for (kept, w) in kept.iter_mut().zip(WhatIf::ALL) {
                if !w.removes(s.kind) {
                    *kept += s.dur_us();
                }
            }
        }
        for (at, kept) in job.what_if_finish_us.iter_mut().zip(kept) {
            *at = (*at).max(span.submit_us + kept);
        }
        // Ascending id order: a later task with the same finish loses.
        if job.crit.is_none_or(|(_, at)| finish > at) {
            job.crit = Some((span, finish));
        }
    }
    let mut jobs = jobs.into_vec();
    jobs.sort_unstable_by_key(|j| j.job);
    jobs
}

/// Extraction result: one path per complete job, plus how many jobs
/// were excluded.
#[derive(Debug, Clone)]
pub struct JobPaths {
    /// Critical paths in ascending job-id order.
    pub paths: Vec<JobPath>,
    /// Jobs excluded because a task never finished within the trace or
    /// carried malformed records.
    pub skipped_jobs: u64,
}

/// Extracts the critical path of every complete job from a finished
/// collector. Every returned path has passed [`JobPath::check_tiling`];
/// a violation is returned as an error (callers treat it as fatal).
pub fn extract_job_paths(collector: &SpanCollector) -> Result<JobPaths, String> {
    let jobs = walk_jobs(collector);
    let mut paths = Vec::with_capacity(jobs.len());
    for path in jobs.iter().filter_map(JobWalk::path) {
        paths.push(path?);
    }
    Ok(JobPaths {
        skipped_jobs: (jobs.len() - paths.len()) as u64,
        paths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SegKind, SpanCollector};
    use cbp_telemetry::TraceRecord;

    fn two_job_collector() -> SpanCollector {
        let mut c = SpanCollector::new();
        let stream = [
            // Job 1: tasks 1 and 2; task 2 finishes last.
            (
                0,
                TraceRecord::TaskSubmit {
                    task: 1,
                    job: 1,
                    priority: 0,
                },
            ),
            (
                0,
                TraceRecord::TaskSubmit {
                    task: 2,
                    job: 1,
                    priority: 0,
                },
            ),
            // Job 2: task 3, production band, still running at trace end.
            (
                5,
                TraceRecord::TaskSubmit {
                    task: 3,
                    job: 2,
                    priority: 9,
                },
            ),
            (
                10,
                TraceRecord::TaskSchedule {
                    task: 1,
                    node: 0,
                    restore: false,
                },
            ),
            (
                20,
                TraceRecord::TaskSchedule {
                    task: 2,
                    node: 1,
                    restore: false,
                },
            ),
            (
                30,
                TraceRecord::TaskSchedule {
                    task: 3,
                    node: 0,
                    restore: false,
                },
            ),
            (110, TraceRecord::TaskFinish { task: 1, node: 0 }),
            (220, TraceRecord::TaskFinish { task: 2, node: 1 }),
        ];
        for (t, rec) in stream {
            c.observe(t, &rec);
        }
        assert_eq!(c.malformed(), 0, "first: {:?}", c.first_malformed());
        c
    }

    #[test]
    fn picks_latest_finisher_and_skips_incomplete_jobs() {
        let jp = extract_job_paths(&two_job_collector()).unwrap();
        assert_eq!(jp.skipped_jobs, 1, "job 2 never finished");
        assert_eq!(jp.paths.len(), 1);
        let p = &jp.paths[0];
        assert_eq!(p.job, 1);
        assert_eq!(p.task, 2);
        assert_eq!(p.response_us(), 220);
        assert_eq!(p.band(), Band::Free);
        assert_eq!(
            p.segments
                .iter()
                .map(|s| (s.kind, s.dur_us()))
                .collect::<Vec<_>>(),
            vec![(SegKind::ReadyWait, 20), (SegKind::Run, 200)],
        );
    }

    #[test]
    fn check_tiling_rejects_gaps() {
        let jp = extract_job_paths(&two_job_collector()).unwrap();
        let mut p = jp.paths[0].clone();
        p.segments[1].start_us += 1;
        assert!(p.check_tiling().is_err());
        p.segments[1].start_us -= 1;
        p.finish_us += 7;
        assert!(p.check_tiling().is_err());
    }
}
