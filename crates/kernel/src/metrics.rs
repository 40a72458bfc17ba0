//! Run-level metrics: job response times, per-SPU resource usage, disk
//! and cache statistics — the raw material of every figure and table in
//! the paper's evaluation.

use event_sim::{LogHistogram, SimDuration, SimTime};
use hp_disk::DiskStats;
use spu_core::{ResourceLevels, SpuId};

use crate::bufcache::CacheStats;
use crate::obsv::ObsvReport;
use crate::process::{JobId, Pid};
use crate::vm::VmSpuStats;

/// One tracked job: a root process spawned with a label; its response
/// time is spawn → exit of the root (which waits for its children).
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Job identity.
    pub job: JobId,
    /// Label given at spawn (e.g. `"pmake-spu3"`).
    pub label: String,
    /// The SPU it ran in.
    pub spu: SpuId,
    /// Root process.
    pub root: Pid,
    /// Spawn time.
    pub started: SimTime,
    /// Root-exit time, if it finished.
    pub finished: Option<SimTime>,
    /// Absolute deadline, for jobs spawned through
    /// [`Kernel::spawn_request_at`](crate::Kernel::spawn_request_at).
    /// `Some` marks the job as a request subject to admission control.
    pub deadline: Option<SimTime>,
    /// Whether admission control shed this request before service; shed
    /// jobs are excluded from SLO scoring (they were refused, not
    /// served late).
    pub shed: bool,
}

impl JobRecord {
    /// Response time, if finished.
    pub fn response(&self) -> Option<SimDuration> {
        self.finished.map(|f| f.saturating_since(self.started))
    }
}

/// Everything measured over one simulation run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Simulated time when the run ended.
    pub end_time: SimTime,
    /// Whether every process finished before the time cap.
    pub completed: bool,
    /// All tracked jobs.
    pub jobs: Vec<JobRecord>,
    /// CPU time consumed per SPU (dense [`SpuId::index`] order).
    pub spu_cpu_time: Vec<SimDuration>,
    /// Idle time per CPU.
    pub cpu_idle: Vec<SimDuration>,
    /// Busy time per CPU.
    pub cpu_busy: Vec<SimDuration>,
    /// VM counters per SPU (dense index order).
    pub vm: Vec<VmSpuStats>,
    /// Final memory levels per SPU (dense index order): the
    /// entitled/allowed/used page counts at the end of the run.
    pub mem_levels: Vec<ResourceLevels>,
    /// Buffer-cache counters.
    pub cache: CacheStats,
    /// Per-disk request statistics.
    pub disks: Vec<DiskStats>,
    /// The observability report: named counters (including the kernel
    /// lock counters under `locks.*`), latency histograms, and — when
    /// sampling was enabled — the per-SPU resource series.
    pub obsv: ObsvReport,
}

impl RunMetrics {
    /// Jobs whose label starts with `prefix`.
    pub fn jobs_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a JobRecord> {
        self.jobs
            .iter()
            .filter(move |j| j.label.starts_with(prefix))
    }

    /// The job with an exact label.
    pub fn job(&self, label: &str) -> Option<&JobRecord> {
        self.jobs.iter().find(|j| j.label == label)
    }

    /// Response time in seconds of one job, scoring an unfinished job at
    /// the run's end time (a lower bound, so comparisons stay meaningful
    /// if a cap was hit).
    fn scored_response(&self, j: &JobRecord) -> f64 {
        j.response()
            .unwrap_or_else(|| self.end_time.saturating_since(j.started))
            .as_secs_f64()
    }

    /// Mean response time in seconds over jobs whose label starts with
    /// `prefix`, or `None` when no job matches. Unfinished jobs are
    /// scored at the run's end time.
    pub fn mean_response_secs(&self, prefix: &str) -> Option<f64> {
        let times: Vec<f64> = self
            .jobs_with_prefix(prefix)
            .map(|j| self.scored_response(j))
            .collect();
        if times.is_empty() {
            None
        } else {
            Some(times.iter().sum::<f64>() / times.len() as f64)
        }
    }

    /// Mean response over the jobs of one SPU, or `None` when the SPU
    /// ran no tracked job.
    pub fn mean_response_of_spu(&self, spu: SpuId) -> Option<f64> {
        let times: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.spu == spu)
            .map(|j| self.scored_response(j))
            .collect();
        if times.is_empty() {
            None
        } else {
            Some(times.iter().sum::<f64>() / times.len() as f64)
        }
    }

    /// A log-bucketed histogram of the response times of jobs whose
    /// label starts with `prefix` (empty prefix = all jobs).
    pub fn response_histogram(&self, prefix: &str) -> LogHistogram {
        let mut h = LogHistogram::latency();
        for j in self.jobs_with_prefix(prefix) {
            h.add(self.scored_response(j));
        }
        h
    }

    /// `(p50, p95, p99)` response percentiles in seconds over jobs whose
    /// label starts with `prefix`, or `None` when no job matches.
    pub fn response_percentiles(&self, prefix: &str) -> Option<(f64, f64, f64)> {
        let h = self.response_histogram(prefix);
        Some((
            h.percentile(50.0)?,
            h.percentile(95.0)?,
            h.percentile(99.0)?,
        ))
    }

    /// Kernel-lock acquisitions attempted (from the counter registry).
    pub fn lock_acquires(&self) -> u64 {
        self.obsv.counters.get("locks.acquires")
    }

    /// Kernel-lock acquisitions that had to wait.
    pub fn lock_contended(&self) -> u64 {
        self.obsv.counters.get("locks.contended")
    }

    /// Fraction of lock acquisitions that contended.
    pub fn lock_contention_ratio(&self) -> f64 {
        let total = self.lock_acquires();
        if total == 0 {
            0.0
        } else {
            self.lock_contended() as f64 / total as f64
        }
    }

    /// The cross-SPU interference report (empty unless
    /// [`Kernel::enable_attribution`](crate::Kernel::enable_attribution)
    /// was called before the run).
    pub fn interference(&self) -> &crate::obsv::interference::InterferenceReport {
        &self.obsv.interference
    }

    /// The per-SPU SLO report (empty unless
    /// [`Kernel::enable_slo`](crate::Kernel::enable_slo) was called
    /// before the run).
    pub fn slo(&self) -> &crate::obsv::interference::SloReport {
        &self.obsv.slo
    }

    /// The per-SPU admission/shedding report (empty unless admission
    /// control was enabled via `Tuning::admission_cap`).
    pub fn requests(&self) -> &crate::obsv::RequestReport {
        &self.obsv.requests
    }

    /// Time one SPU spent waiting on another through one channel, in
    /// seconds (pages for the memory-steal channel).
    pub fn interference_amount(
        &self,
        ch: crate::obsv::interference::Channel,
        waiter: SpuId,
        holder: SpuId,
    ) -> f64 {
        use crate::obsv::interference::Channel;
        let raw = self.obsv.interference.matrix.amount(ch, waiter, holder) as f64;
        if ch == Channel::MemSteal {
            raw
        } else {
            raw / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(label: &str, spu: SpuId, start_ms: u64, end_ms: Option<u64>) -> JobRecord {
        JobRecord {
            job: JobId(0),
            label: label.to_string(),
            spu,
            root: Pid(0),
            started: SimTime::from_millis(start_ms),
            finished: end_ms.map(SimTime::from_millis),
            deadline: None,
            shed: false,
        }
    }

    fn metrics(jobs: Vec<JobRecord>) -> RunMetrics {
        RunMetrics {
            end_time: SimTime::from_secs(100),
            completed: true,
            jobs,
            spu_cpu_time: vec![],
            cpu_idle: vec![],
            cpu_busy: vec![],
            vm: vec![],
            mem_levels: vec![],
            cache: CacheStats::default(),
            disks: vec![],
            obsv: ObsvReport::default(),
        }
    }

    #[test]
    fn response_time() {
        let j = job("a", SpuId::user(0), 1000, Some(3500));
        assert_eq!(j.response(), Some(SimDuration::from_millis(2500)));
        let unfinished = job("b", SpuId::user(0), 1000, None);
        assert_eq!(unfinished.response(), None);
    }

    #[test]
    fn mean_response_by_prefix() {
        let m = metrics(vec![
            job("pmake-0", SpuId::user(0), 0, Some(2000)),
            job("pmake-1", SpuId::user(1), 0, Some(4000)),
            job("copy-0", SpuId::user(2), 0, Some(10000)),
        ]);
        assert!((m.mean_response_secs("pmake").unwrap() - 3.0).abs() < 1e-9);
        assert!((m.mean_response_secs("copy").unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(m.mean_response_secs("nothing"), None);
    }

    #[test]
    fn unfinished_jobs_score_at_end_time() {
        let m = metrics(vec![job("x", SpuId::user(0), 0, None)]);
        assert!((m.mean_response_secs("x").unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mean_by_spu() {
        let m = metrics(vec![
            job("a", SpuId::user(0), 0, Some(1000)),
            job("b", SpuId::user(0), 0, Some(3000)),
            job("c", SpuId::user(1), 0, Some(9000)),
        ]);
        assert!((m.mean_response_of_spu(SpuId::user(0)).unwrap() - 2.0).abs() < 1e-9);
        assert!((m.mean_response_of_spu(SpuId::user(1)).unwrap() - 9.0).abs() < 1e-9);
        assert_eq!(m.mean_response_of_spu(SpuId::user(2)), None);
    }

    #[test]
    fn response_percentiles_by_prefix() {
        let jobs: Vec<JobRecord> = (0..20)
            .map(|i| job("j", SpuId::user(0), 0, Some(1000 * (i + 1))))
            .collect();
        let m = metrics(jobs);
        let (p50, p95, p99) = m.response_percentiles("j").unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        // p50 near 10 s, p99 near 20 s (log buckets are coarse: ×2).
        assert!((4.0..=16.0).contains(&p50), "p50={p50}");
        assert!(p99 <= 64.0, "p99={p99}");
        assert_eq!(m.response_percentiles("none"), None);
        assert_eq!(m.response_histogram("j").count(), 20);
    }

    #[test]
    fn lock_ratio() {
        let mut m = metrics(vec![]);
        assert_eq!(m.lock_contention_ratio(), 0.0);
        m.obsv.counters.set("locks.acquires", 10);
        m.obsv.counters.set("locks.contended", 3);
        assert!((m.lock_contention_ratio() - 0.3).abs() < 1e-12);
    }
}
