//! Observability: named counters, periodic per-SPU resource sampling,
//! and latency histograms.
//!
//! The paper credits SimOS's "good support for kernel debugging and
//! statistics collection" (§4.1); this module is the structured half of
//! that support (the event stream lives in [`crate::trace`]). Three
//! pieces:
//!
//! * [`CounterRegistry`] — a uniform named-counter table every subsystem
//!   publishes into at collection time (lock acquisitions, faults, cache
//!   hits, dispatches, ...), replacing ad-hoc metric fields.
//! * [`SampleSeries`] — periodic `(entitled, allowed, used)` time series
//!   per SPU and resource, recorded by the kernel's sampling event. The
//!   memory series makes §3.2's lend-and-revoke cycle directly visible:
//!   `allowed` rises above `entitled` while idle memory is loaned and
//!   returns to `entitled` when the policy revokes the loan.
//! * [`LatencyStats`] — log-bucketed histograms
//!   ([`event_sim::LogHistogram`]) of job response, wake→dispatch
//!   latency, loan-revocation latency and disk service time.
//!
//! Everything is keyed by simulated time only, so two identical runs
//! produce byte-identical exports (see [`crate::export`]).
//!
//! The opt-in cross-SPU interference matrix and SLO tracker live in
//! [`interference`].

pub mod interference;

use std::collections::HashMap;
use std::sync::Arc;

use event_sim::{LogHistogram, SimDuration, SimTime};
use spu_core::SpuId;

/// A dense handle to an interned counter name.
///
/// Resolved once by [`CounterRegistry::intern`]; every later touch is a
/// plain `Vec` index instead of a string hash/compare, which is what
/// keeps counter publication off the simulator's allocation profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// The interned name table: id-ordered names, a lookup index, and the
/// lexicographic permutation iteration follows.
///
/// Shared (`Arc`) between a registry and its clones so cloning a
/// registry — the per-collect publish path — copies only the dense
/// value vector; interning a new name copies-on-write.
#[derive(Clone, Debug, Default)]
struct NameTable {
    /// Names in id order.
    names: Vec<String>,
    /// Ids in lexicographic name order (the export order).
    sorted: Vec<u32>,
    /// Name → id.
    index: HashMap<String, u32>,
}

/// A table of named monotonic counters.
///
/// Names are dot-separated `subsystem.metric` strings, interned into
/// dense [`CounterId`]s; iteration is in lexicographic name order
/// regardless of interning order, so exports are deterministic and
/// byte-identical to the old `BTreeMap`-backed registry.
///
/// # Examples
///
/// ```
/// use smp_kernel::obsv::CounterRegistry;
///
/// let mut reg = CounterRegistry::new();
/// reg.add("locks.acquires", 10);
/// reg.add("locks.acquires", 5);
/// assert_eq!(reg.get("locks.acquires"), 15);
/// assert_eq!(reg.get("never.seen"), 0);
///
/// // Hot paths intern once and touch by id thereafter.
/// let id = reg.intern("sched.dispatches");
/// reg.add_id(id, 3);
/// assert_eq!(reg.get_id(id), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CounterRegistry {
    names: Arc<NameTable>,
    /// Values in id order; always `names.names.len()` long.
    values: Vec<u64>,
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        CounterRegistry::default()
    }

    /// Interns `name`, creating the counter at zero on first sight, and
    /// returns its dense id. Idempotent; the id is stable for the life
    /// of the registry and all its clones.
    pub fn intern(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.names.index.get(name) {
            return CounterId(id);
        }
        let table = Arc::make_mut(&mut self.names);
        let id = table.names.len() as u32;
        let pos = table
            .sorted
            .partition_point(|&i| table.names[i as usize].as_str() < name);
        table.sorted.insert(pos, id);
        table.names.push(name.to_string());
        table.index.insert(name.to_string(), id);
        self.values.push(0);
        CounterId(id)
    }

    /// Adds `delta` to the counter behind `id`.
    #[inline]
    pub fn add_id(&mut self, id: CounterId, delta: u64) {
        self.values[id.0 as usize] += delta;
    }

    /// Sets the counter behind `id` to an absolute value.
    #[inline]
    pub fn set_id(&mut self, id: CounterId, value: u64) {
        self.values[id.0 as usize] = value;
    }

    /// The value behind `id`.
    #[inline]
    pub fn get_id(&self, id: CounterId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn add(&mut self, name: &str, delta: u64) {
        let id = self.intern(name);
        self.add_id(id, delta);
    }

    /// Sets the named counter to an absolute value.
    pub fn set(&mut self, name: &str, value: u64) {
        let id = self.intern(name);
        self.set_id(id, value);
    }

    /// The counter's value, zero if never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.names
            .index
            .get(name)
            .map(|&id| self.values[id as usize])
            .unwrap_or(0)
    }

    /// All counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names.sorted.iter().map(|&id| {
            (
                self.names.names[id as usize].as_str(),
                self.values[id as usize],
            )
        })
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Registries compare as maps: same name/value pairs, regardless of the
/// order names were interned.
impl PartialEq for CounterRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for CounterRegistry {}

/// Which resource a [`SampleSeries`] tracks — the unified
/// [`spu_core::ResourceKind`]. Its `as_str` tags key the export lines.
pub use spu_core::ResourceKind;

/// One sample point of an SPU's levels for one resource.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// The share the SPU owns under the sharing contract.
    pub entitled: f64,
    /// What the SPU may use right now (≥ `entitled` while borrowing).
    pub allowed: f64,
    /// What the SPU is using.
    pub used: f64,
}

/// The sampled `(entitled, allowed, used)` history of one SPU for one
/// resource.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleSeries {
    /// The SPU.
    pub spu: SpuId,
    /// Its display name (from the [`spu_core::SpuSet`]).
    pub spu_name: String,
    /// The resource tracked.
    pub resource: ResourceKind,
    /// Samples in time order.
    pub samples: Vec<ResourceSample>,
}

impl SampleSeries {
    /// Creates an empty series.
    pub fn new(spu: SpuId, spu_name: impl Into<String>, resource: ResourceKind) -> Self {
        SampleSeries {
            spu,
            spu_name: spu_name.into(),
            resource,
            samples: Vec::new(),
        }
    }

    /// Appends a sample (must be in time order).
    pub fn push(&mut self, sample: ResourceSample) {
        debug_assert!(
            self.samples.last().is_none_or(|s| s.at <= sample.at),
            "samples out of order"
        );
        self.samples.push(sample);
    }

    /// Largest `allowed - entitled` over the series — how much the SPU
    /// ever borrowed.
    pub fn peak_borrowed(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.allowed - s.entitled)
            .fold(0.0, f64::max)
    }

    /// Samples where the SPU was borrowing (`allowed > entitled` by more
    /// than `eps`).
    pub fn borrowing_spans(&self, eps: f64) -> Vec<&ResourceSample> {
        self.samples
            .iter()
            .filter(|s| s.allowed - s.entitled > eps)
            .collect()
    }
}

/// Log-bucketed latency histograms of the run.
///
/// All four use [`LogHistogram::latency`] (1 µs .. ~1 min, ×2 growth),
/// so they can be merged across runs and compared directly.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyStats {
    /// Job response times (spawn → root exit), seconds.
    pub response: LogHistogram,
    /// Wake → dispatch latency of every dispatch, seconds.
    pub wake_to_dispatch: LogHistogram,
    /// Loan-revocation latency: a home wake-up needing a loaned CPU back
    /// → that CPU descheduling its borrower (§3.1's "at most 10 ms"),
    /// seconds.
    pub revocation: LogHistogram,
    /// Disk service time per request (seek + rotation + transfer),
    /// seconds.
    pub disk_service: LogHistogram,
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            response: LogHistogram::latency(),
            wake_to_dispatch: LogHistogram::latency(),
            revocation: LogHistogram::latency(),
            disk_service: LogHistogram::latency(),
        }
    }
}

impl LatencyStats {
    /// Creates empty histograms.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// The histograms with their export names, in a fixed order.
    pub fn named(&self) -> [(&'static str, &LogHistogram); 4] {
        [
            ("response", &self.response),
            ("wake_to_dispatch", &self.wake_to_dispatch),
            ("revocation", &self.revocation),
            ("disk_service", &self.disk_service),
        ]
    }
}

/// Per-SPU admission-control and load-shedding tallies for one run.
/// Empty unless admission control was enabled (a nonzero
/// `Tuning::admission_cap`) and requests actually arrived, so ordinary
/// runs' exports are untouched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestReport {
    /// One row per SPU that saw request arrivals, dense index order.
    pub per_spu: Vec<SpuRequests>,
}

impl RequestReport {
    /// True when no SPU saw any request traffic.
    pub fn is_empty(&self) -> bool {
        self.per_spu.is_empty()
    }

    /// The row of one SPU, if it saw request traffic.
    pub fn spu(&self, spu: SpuId) -> Option<&SpuRequests> {
        self.per_spu.iter().find(|r| r.spu == spu)
    }
}

/// Admission-queue tallies of one SPU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpuRequests {
    /// The SPU.
    pub spu: SpuId,
    /// Its display name.
    pub name: String,
    /// Requests that arrived (first submissions, not resubmissions).
    pub arrivals: u64,
    /// Requests admitted into service.
    pub admitted: u64,
    /// Requests shed (refused at the queue or dropped from it).
    pub shed: u64,
    /// Of the shed requests, how many were dropped because their
    /// deadline had already passed while queued.
    pub expired: u64,
    /// Queue-wait timeouts that fired.
    pub timeouts: u64,
    /// Client resubmissions after a timeout.
    pub retries: u64,
    /// Optional work (prefetch, read-ahead) skipped while the SPU was
    /// in brown-out.
    pub brownout_skips: u64,
    /// Longest the wait queue ever got.
    pub peak_queue: u64,
}

/// Everything the observability layer collected over one run; carried in
/// [`crate::metrics::RunMetrics::obsv`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsvReport {
    /// Named subsystem counters.
    pub counters: CounterRegistry,
    /// Per-SPU resource series (empty unless sampling was enabled);
    /// laid out SPU-major, CPU time, memory and disk bandwidth in that
    /// order within an SPU.
    pub series: Vec<SampleSeries>,
    /// Latency histograms.
    pub latency: LatencyStats,
    /// The sampling interval, if sampling was on.
    pub sample_interval: Option<SimDuration>,
    /// Cross-SPU interference attribution (empty unless
    /// [`Kernel::enable_attribution`](crate::Kernel::enable_attribution)
    /// was called).
    pub interference: interference::InterferenceReport,
    /// Per-SPU SLO table (empty unless
    /// [`Kernel::enable_slo`](crate::Kernel::enable_slo) was called).
    pub slo: interference::SloReport,
    /// Per-SPU admission/shedding table (empty unless admission control
    /// was on and requests arrived).
    pub requests: RequestReport,
}

impl ObsvReport {
    /// The series of one SPU and resource, if sampled.
    pub fn series_of(&self, spu: SpuId, resource: ResourceKind) -> Option<&SampleSeries> {
        self.series
            .iter()
            .find(|s| s.spu == spu && s.resource == resource)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_orders_by_name() {
        let mut reg = CounterRegistry::new();
        reg.add("z.last", 1);
        reg.add("a.first", 2);
        reg.set("m.middle", 3);
        let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn registry_order_is_independent_of_interning_order() {
        let mut a = CounterRegistry::new();
        a.add("z.last", 1);
        a.add("a.first", 2);
        let mut b = CounterRegistry::new();
        b.add("a.first", 2);
        b.add("z.last", 1);
        assert_eq!(a, b);
        let names: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
    }

    #[test]
    fn interned_ids_and_strings_agree() {
        let mut reg = CounterRegistry::new();
        let id = reg.intern("vm.major_faults");
        assert_eq!(reg.intern("vm.major_faults"), id);
        reg.add_id(id, 4);
        reg.add("vm.major_faults", 1);
        assert_eq!(reg.get_id(id), 5);
        assert_eq!(reg.get("vm.major_faults"), 5);
        reg.set_id(id, 2);
        assert_eq!(reg.get("vm.major_faults"), 2);
    }

    #[test]
    fn clones_share_the_name_table() {
        let mut proto = CounterRegistry::new();
        let id = proto.intern("cache.hits");
        let mut a = proto.clone();
        a.set_id(id, 7);
        // The clone's writes don't leak back into the prototype.
        assert_eq!(proto.get_id(id), 0);
        assert_eq!(a.get_id(id), 7);
        // Interning on a clone copies-on-write and leaves siblings intact.
        a.intern("cache.misses");
        assert_eq!(proto.len(), 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn registry_add_accumulates() {
        let mut reg = CounterRegistry::new();
        reg.add("x", 7);
        reg.add("x", 5);
        assert_eq!(reg.get("x"), 12);
        reg.set("x", 1);
        assert_eq!(reg.get("x"), 1);
    }

    #[test]
    fn series_tracks_borrowing() {
        let mut s = SampleSeries::new(SpuId::user(0), "user0", ResourceKind::Memory);
        s.push(ResourceSample {
            at: SimTime::from_millis(0),
            entitled: 100.0,
            allowed: 100.0,
            used: 80.0,
        });
        s.push(ResourceSample {
            at: SimTime::from_millis(100),
            entitled: 100.0,
            allowed: 150.0,
            used: 140.0,
        });
        s.push(ResourceSample {
            at: SimTime::from_millis(200),
            entitled: 100.0,
            allowed: 100.0,
            used: 90.0,
        });
        assert_eq!(s.peak_borrowed(), 50.0);
        assert_eq!(s.borrowing_spans(0.5).len(), 1);
    }

    #[test]
    fn latency_histograms_share_boundaries() {
        let mut a = LatencyStats::new();
        let b = LatencyStats::new();
        // Merging fresh stats must not panic (identical boundaries).
        a.response.merge(&b.response);
        a.disk_service.merge(&b.disk_service);
        assert_eq!(a.response.count(), 0);
    }

    #[test]
    fn report_finds_series() {
        let mut r = ObsvReport::default();
        r.series.push(SampleSeries::new(
            SpuId::user(1),
            "u1",
            ResourceKind::CpuTime,
        ));
        assert!(r.series_of(SpuId::user(1), ResourceKind::CpuTime).is_some());
        assert!(r
            .series_of(SpuId::user(1), ResourceKind::DiskBandwidth)
            .is_none());
        assert!(r.series_of(SpuId::user(0), ResourceKind::CpuTime).is_none());
    }
}
