//! Deterministic open-loop arrival generators.
//!
//! The paper's workloads are closed-loop: a fixed population of
//! processes, so offered load can never exceed what the machine
//! completes. An [`ArrivalProcess`] models the opposite regime — an
//! open-loop stream of requests standing in for a large client
//! population that does *not* slow down when the server does. Under
//! open-loop load, queues can grow without bound, which is exactly the
//! regime where admission control and load shedding earn their keep.
//!
//! Like [`FaultPlan`](crate::FaultPlan), a generated [`ArrivalPlan`] is
//! plain data: a time-sorted list of instants, materialised once at
//! boot from a seed. Equal `(process, seed, horizon)` triples yield
//! byte-identical schedules, so a simulation that consumes a plan stays
//! a pure function of its inputs.

use crate::time::{SimDuration, SimTime};
use crate::SplitMix64;

/// A stochastic arrival process, described by its parameters.
///
/// All rates are *offered* rates — what the clients send, independent
/// of what the server completes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival times at a
    /// constant rate.
    Poisson {
        /// Mean arrivals per simulated second.
        rate_per_sec: f64,
    },
    /// A two-state Markov-modulated Poisson process: the stream
    /// alternates between a quiet state and a burst state, each with
    /// its own rate, dwelling in each for an exponentially distributed
    /// time. Models bursty client populations whose mean rate hides
    /// damaging short-term peaks.
    Mmpp {
        /// Arrival rate in the quiet state (per second).
        quiet_rate: f64,
        /// Arrival rate in the burst state (per second).
        burst_rate: f64,
        /// Mean dwell time in the quiet state.
        quiet_dwell: SimDuration,
        /// Mean dwell time in the burst state.
        burst_dwell: SimDuration,
    },
    /// A time-varying Poisson process whose rate ramps linearly from
    /// `start_rate` to `end_rate` over the horizon — a compressed
    /// diurnal cycle. Generated by Lewis–Shedler thinning against the
    /// peak rate, so the schedule is exact, not binned.
    DiurnalRamp {
        /// Rate at time zero (per second).
        start_rate: f64,
        /// Rate at the horizon (per second).
        end_rate: f64,
    },
}

impl ArrivalProcess {
    /// Short stable label for tables and cell keys.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Mmpp { .. } => "mmpp",
            ArrivalProcess::DiurnalRamp { .. } => "diurnal",
        }
    }

    /// Materialises the arrival schedule over `[0, horizon]`. Equal
    /// `(self, seed, horizon)` give equal plans; different seeds give
    /// different plans (with overwhelming probability).
    pub fn generate(self, seed: u64, horizon: SimTime) -> ArrivalPlan {
        let mut rng = SplitMix64::new(seed);
        let mut times = Vec::new();
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                if rate_per_sec > 0.0 {
                    let mut t = 0.0;
                    let end = horizon.as_secs_f64();
                    loop {
                        t += exp_sample(&mut rng, rate_per_sec);
                        if t > end {
                            break;
                        }
                        times.push(time_from_secs(t));
                    }
                }
            }
            ArrivalProcess::Mmpp {
                quiet_rate,
                burst_rate,
                quiet_dwell,
                burst_dwell,
            } => {
                // Walk the state chain, generating a Poisson stream at
                // the current state's rate within each dwell segment.
                let end = horizon.as_secs_f64();
                let mut seg_start = 0.0;
                let mut in_burst = false;
                while seg_start < end {
                    let (rate, dwell) = if in_burst {
                        (burst_rate, burst_dwell)
                    } else {
                        (quiet_rate, quiet_dwell)
                    };
                    let dwell_mean = dwell.as_secs_f64().max(1e-9);
                    let seg_len = exp_sample(&mut rng, 1.0 / dwell_mean);
                    let seg_end = (seg_start + seg_len).min(end);
                    if rate > 0.0 {
                        let mut t = seg_start;
                        loop {
                            t += exp_sample(&mut rng, rate);
                            if t > seg_end {
                                break;
                            }
                            times.push(time_from_secs(t));
                        }
                    }
                    seg_start = seg_end;
                    in_burst = !in_burst;
                }
            }
            ArrivalProcess::DiurnalRamp {
                start_rate,
                end_rate,
            } => {
                // Lewis–Shedler thinning: generate at the peak rate,
                // keep each candidate with probability rate(t)/peak.
                let peak = start_rate.max(end_rate);
                if peak > 0.0 {
                    let end = horizon.as_secs_f64();
                    let mut t = 0.0;
                    loop {
                        t += exp_sample(&mut rng, peak);
                        if t > end {
                            break;
                        }
                        let frac = if end > 0.0 { t / end } else { 0.0 };
                        let rate = start_rate + (end_rate - start_rate) * frac;
                        if rng.next_f64() < rate / peak {
                            times.push(time_from_secs(t));
                        }
                    }
                }
            }
        }
        // Float-to-nanos rounding could in principle produce ties; the
        // schedule only promises non-decreasing times.
        times.sort_unstable();
        ArrivalPlan { times }
    }
}

/// An exponential sample with the given rate (inverse transform; the
/// `1 - U` keeps `ln` away from zero since `next_f64` is in `[0, 1)`).
fn exp_sample(rng: &mut SplitMix64, rate_per_sec: f64) -> f64 {
    -(1.0 - rng.next_f64()).ln() / rate_per_sec
}

/// Seconds-as-float to the nanosecond [`SimTime`] grid.
fn time_from_secs(t: f64) -> SimTime {
    SimTime::from_nanos((t * 1e9).round() as u64)
}

/// A materialised, time-sorted arrival schedule.
///
/// # Examples
///
/// ```
/// use event_sim::{ArrivalProcess, SimTime};
/// let plan = ArrivalProcess::Poisson { rate_per_sec: 100.0 }
///     .generate(7, SimTime::from_secs(1));
/// let again = ArrivalProcess::Poisson { rate_per_sec: 100.0 }
///     .generate(7, SimTime::from_secs(1));
/// assert_eq!(plan, again);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArrivalPlan {
    times: Vec<SimTime>,
}

impl ArrivalPlan {
    /// The arrival instants, non-decreasing.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the plan has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Mean offered rate over `[0, horizon]`, arrivals per second.
    pub fn offered_rate(&self, horizon: SimTime) -> f64 {
        let secs = horizon.as_secs_f64();
        if secs > 0.0 {
            self.times.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// A canonical text rendering of the schedule — one nanosecond
    /// timestamp per line. Used by determinism tests to compare
    /// schedules byte-for-byte.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.times {
            out.push_str(&t.as_nanos().to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: SimTime = SimTime::from_secs(10);

    fn all_processes() -> Vec<ArrivalProcess> {
        vec![
            ArrivalProcess::Poisson { rate_per_sec: 50.0 },
            ArrivalProcess::Mmpp {
                quiet_rate: 20.0,
                burst_rate: 200.0,
                quiet_dwell: SimDuration::from_millis(500),
                burst_dwell: SimDuration::from_millis(100),
            },
            ArrivalProcess::DiurnalRamp {
                start_rate: 10.0,
                end_rate: 100.0,
            },
        ]
    }

    #[test]
    fn equal_seeds_give_byte_identical_schedules() {
        for p in all_processes() {
            for seed in 0..10 {
                let a = p.generate(seed, HORIZON);
                let b = p.generate(seed, HORIZON);
                assert_eq!(a, b, "{p:?} seed {seed}");
                assert_eq!(a.render(), b.render());
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        for p in all_processes() {
            let a = p.generate(1, HORIZON);
            let b = p.generate(2, HORIZON);
            assert_ne!(a, b, "{p:?}");
        }
    }

    #[test]
    fn schedules_stay_inside_horizon_and_sorted() {
        for p in all_processes() {
            for seed in 0..10 {
                let plan = p.generate(seed, HORIZON);
                assert!(!plan.is_empty(), "{p:?} generated nothing");
                let mut prev = SimTime::ZERO;
                for &t in plan.times() {
                    assert!(t >= prev, "{p:?} not sorted");
                    assert!(t <= HORIZON, "{p:?} past horizon");
                    prev = t;
                }
            }
        }
    }

    #[test]
    fn poisson_rate_is_roughly_right() {
        let p = ArrivalProcess::Poisson {
            rate_per_sec: 500.0,
        };
        let plan = p.generate(3, HORIZON);
        let rate = plan.offered_rate(HORIZON);
        assert!(
            (rate - 500.0).abs() < 50.0,
            "rate {rate} far from nominal 500"
        );
    }

    #[test]
    fn mmpp_mean_rate_between_states() {
        let p = ArrivalProcess::Mmpp {
            quiet_rate: 10.0,
            burst_rate: 1000.0,
            quiet_dwell: SimDuration::from_millis(500),
            burst_dwell: SimDuration::from_millis(500),
        };
        let plan = p.generate(4, HORIZON);
        let rate = plan.offered_rate(HORIZON);
        assert!(rate > 10.0 && rate < 1000.0, "rate {rate}");
    }

    #[test]
    fn diurnal_ramp_back_half_is_denser() {
        let p = ArrivalProcess::DiurnalRamp {
            start_rate: 10.0,
            end_rate: 200.0,
        };
        let plan = p.generate(5, HORIZON);
        let mid = SimTime::from_secs(5);
        let front = plan.times().iter().filter(|&&t| t < mid).count();
        let back = plan.len() - front;
        assert!(back > 2 * front, "front {front} back {back}");
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 0.0 };
        assert!(p.generate(0, HORIZON).is_empty());
    }

    #[test]
    fn render_is_parseable_nanos() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 20.0 };
        let plan = p.generate(6, HORIZON);
        let parsed: Vec<u64> = plan.render().lines().map(|l| l.parse().unwrap()).collect();
        let nanos: Vec<u64> = plan.times().iter().map(|t| t.as_nanos()).collect();
        assert_eq!(parsed, nanos);
    }
}
