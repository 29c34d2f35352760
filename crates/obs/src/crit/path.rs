//! Per-job critical paths: the ordered segment chain of the task that
//! determines each job's completion time.

use std::collections::BTreeMap;

use crate::span::{Band, Segment, SpanCollector, TaskSpan};

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
        let mut cursor = self.submit_us;
        for s in &self.segments {
            if s.start_us != cursor {
                return Err(format!(
                    "job {}: critical path has a gap or overlap at {} µs \
                     (next segment {:?} starts at {})",
                    self.job, cursor, s.kind, s.start_us
                ));
            }
            if s.end_us <= s.start_us {
                return Err(format!(
                    "job {}: empty or inverted segment {:?} at {} µs",
                    self.job, s.kind, s.start_us
                ));
            }
            cursor = s.end_us;
        }
        if cursor != self.finish_us {
            return Err(format!(
                "job {}: critical path ends at {} µs but the job finishes at {} µs",
                self.job, cursor, self.finish_us
            ));
        }
        Ok(())
    }
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
    // Group tasks by job (BTreeMap: deterministic job order).
    let mut jobs: BTreeMap<u64, Vec<&TaskSpan>> = BTreeMap::new();
    for span in collector.tasks().values() {
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
