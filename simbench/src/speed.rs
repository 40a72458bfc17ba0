//! The host-speed probe.
//!
//! On a shared host the speed of the benchmark's one thread drifts by
//! tens of percent from one second to the next, with neighbours' load.
//! Before every timed cell the runner times a fixed probe, allocation
//! churn that calls no simulator code, and rescales the cell's host
//! times by how much slower or faster than [`REFERENCE`] the probes
//! around it ran. The reported host times then read as if the host
//! always ran at the reference speed: a change to the simulator moves
//! them, a drift of the host mostly does not.
//!
//! The probe goes through the same allocator as the simulator. Of the
//! probes tried on the tuning VM it tracked the simulator's drift best;
//! loops that touch only memory of their own tracked it far worse. The
//! run prints the median probe time as measured, so a change that
//! leaves the heap in a state that slows the probe shows there.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median probe time on the 2-core VM the benchmark was tuned on.
/// Frozen: rescaled host times read as on that VM at a typical speed.
pub const REFERENCE: Duration = Duration::from_micros(1300);

/// Probes on each side of a cell whose median rescales it: enough that
/// one disturbed probe does not move the median, few enough that the
/// window covers well under a second of the host's drift.
pub const WINDOW: usize = 5;

/// Allocations per live-set size in one probe.
const STEPS: u64 = 5000;

/// Live-set sizes the probe churns: one that stays in the core's own
/// caches and one that spills out of them, as the simulator's heap does.
const LIVE: [usize; 2] = [256, 2048];

/// Every probe time of a run, in the order they were taken.
#[derive(Debug, Default)]
pub struct HostSpeed {
    probes: Vec<Duration>,
}

impl HostSpeed {
    /// Times one probe and returns its index.
    pub fn probe(&mut self) -> usize {
        let start = Instant::now();
        for live in LIVE {
            churn(live);
        }
        self.probes.push(start.elapsed());
        self.probes.len() - 1
    }

    /// Factor that rescales a host time taken just after probe `i` to the
    /// reference speed: [`REFERENCE`] over the median of the probes within
    /// [`WINDOW`] of `i`.
    pub fn scale(&self, i: usize) -> f64 {
        let hi = (i + WINDOW + 1).min(self.probes.len());
        let mut window = self.probes[i.saturating_sub(WINDOW)..hi].to_vec();
        window.sort();
        REFERENCE.as_secs_f64() / window[window.len() / 2].as_secs_f64()
    }

    /// Median of every probe, as measured.
    pub fn median(&self) -> Duration {
        let mut all = self.probes.clone();
        all.sort();
        all.get(all.len() / 2).copied().unwrap_or_default()
    }
}

/// [`STEPS`] vectors of 1-200 words, each kept in a live set of `live`,
/// replacing a random one once the set is full.
fn churn(live: usize) {
    let mut state = 9u64;
    let mut held: Vec<Vec<u64>> = Vec::with_capacity(live);
    for _ in 0..STEPS {
        // SplitMix64, inline so the probe shares no code with the
        // simulator.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut r = state;
        r = (r ^ (r >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        r = (r ^ (r >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        r ^= r >> 31;
        let v = vec![r; (r % 200) as usize + 1];
        if held.len() < live {
            held.push(v);
        } else {
            held[(r >> 32) as usize % live] = v;
        }
    }
    black_box(&held);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_the_window_median() {
        let ms = Duration::from_millis;
        let speed = HostSpeed {
            probes: [1, 1, 9, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]
                .into_iter()
                .map(ms)
                .collect(),
        };
        let reference = REFERENCE.as_secs_f64();
        // One slow probe does not move the median of its window.
        assert_eq!(speed.scale(0), reference / 1e-3);
        assert_eq!(speed.scale(12), reference / 2e-3);
        assert_eq!(speed.median(), ms(2));
    }
}
