//! The HP 97560 disk model.
//!
//! Geometry and timing follow the published model of Ruemmler & Wilkes
//! ("An Introduction to Disk Drive Modeling", IEEE Computer 1994) and
//! Kotz, Toh & Radhakrishnan (Dartmouth PCS-TR94-220) — the same model
//! the paper cites as `[KTR94]`:
//!
//! * 1962 cylinders × 19 heads × 72 sectors/track × 512 B = ~1.3 GB
//! * 4002 RPM (one revolution ≈ 14.99 ms)
//! * seek time for a distance of `d` cylinders:
//!   `3.24 + 0.400·√d` ms for `d ≤ 383`, else `8.00 + 0.008·d` ms
//! * head switch 2.5 ms, fixed controller overhead 2.2 ms
//!
//! §4.5 of the paper: "To reduce the length of the simulation runs we use
//! a scaling factor of two for the disk model, i.e., the model has half
//! the seek latency of the regular disk." That is
//! [`DiskModel::with_seek_scale`]`(0.5)`.

use event_sim::{SimDuration, SimTime};

/// Parameters of a mechanically-modelled disk drive.
///
/// # Examples
///
/// ```
/// use hp_disk::DiskModel;
/// let disk = DiskModel::hp97560();
/// assert_eq!(disk.total_sectors(), 1962 * 19 * 72);
/// // Long seeks cost more than short ones.
/// assert!(disk.seek_time(0, 1900) > disk.seek_time(0, 10));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DiskModel {
    cylinders: u32,
    heads: u32,
    sectors_per_track: u32,
    rotation: SimDuration,
    /// Seek curve knee: distances at or below use the sqrt law.
    seek_knee: u32,
    seek_short_base_ms: f64,
    seek_short_sqrt_ms: f64,
    seek_long_base_ms: f64,
    seek_long_per_cyl_ms: f64,
    head_switch: SimDuration,
    controller_overhead: SimDuration,
    seek_scale: f64,
}

/// The timing components of one request's service, as computed by
/// [`DiskModel::service`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServiceBreakdown {
    /// Fixed controller/command overhead.
    pub overhead: SimDuration,
    /// Arm seek time (already includes the model's seek scaling).
    pub seek: SimDuration,
    /// Rotational wait until the first sector passes under the head.
    pub rotation: SimDuration,
    /// Media transfer time including head switches.
    pub transfer: SimDuration,
}

impl ServiceBreakdown {
    /// Total service time.
    pub fn total(&self) -> SimDuration {
        self.overhead + self.seek + self.rotation + self.transfer
    }
}

impl DiskModel {
    /// The HP 97560 with its published parameters.
    pub fn hp97560() -> Self {
        DiskModel {
            cylinders: 1962,
            heads: 19,
            sectors_per_track: 72,
            rotation: SimDuration::from_micros(14_992), // 4002 RPM
            seek_knee: 383,
            seek_short_base_ms: 3.24,
            seek_short_sqrt_ms: 0.400,
            seek_long_base_ms: 8.00,
            seek_long_per_cyl_ms: 0.008,
            head_switch: SimDuration::from_micros(2_500),
            controller_overhead: SimDuration::from_micros(2_200),
            seek_scale: 1.0,
        }
    }

    /// Returns this model with seek times scaled by `scale` (the paper's
    /// disk experiments use `0.5`).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn with_seek_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "seek scale must be positive");
        self.seek_scale = scale;
        self
    }

    /// Total number of 512-byte sectors on the disk.
    pub fn total_sectors(&self) -> u64 {
        self.cylinders as u64 * self.heads as u64 * self.sectors_per_track as u64
    }

    /// Number of cylinders.
    pub fn cylinders(&self) -> u32 {
        self.cylinders
    }

    /// Sectors per track.
    pub fn sectors_per_track(&self) -> u32 {
        self.sectors_per_track
    }

    /// One full revolution.
    pub fn rotation_time(&self) -> SimDuration {
        self.rotation
    }

    /// The cylinder holding an absolute sector number.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the sector is off the end of the disk.
    pub fn cylinder_of(&self, sector: u64) -> u32 {
        debug_assert!(
            sector < self.total_sectors(),
            "sector {sector} out of range"
        );
        (sector / (self.heads as u64 * self.sectors_per_track as u64)) as u32
    }

    /// The first sector of cylinder `cyl`: a sector lies on `cyl` or
    /// beyond exactly when it is at least this.
    pub fn first_sector_of(&self, cyl: u32) -> u64 {
        cyl as u64 * self.heads as u64 * self.sectors_per_track as u64
    }

    /// Seek time between two cylinders (includes seek scaling). Zero for
    /// a same-cylinder "seek".
    pub fn seek_time(&self, from_cyl: u32, to_cyl: u32) -> SimDuration {
        let d = from_cyl.abs_diff(to_cyl);
        if d == 0 {
            return SimDuration::ZERO;
        }
        let ms = if d <= self.seek_knee {
            self.seek_short_base_ms + self.seek_short_sqrt_ms * (d as f64).sqrt()
        } else {
            self.seek_long_base_ms + self.seek_long_per_cyl_ms * d as f64
        };
        SimDuration::from_millis_f64(ms * self.seek_scale)
    }

    /// Time for the media to transfer `sectors` contiguous sectors
    /// starting at `start`, including head switches at track boundaries.
    pub fn transfer_time(&self, start: u64, sectors: u32) -> SimDuration {
        let per_sector = self.rotation / self.sectors_per_track as u64;
        let first_track = start / self.sectors_per_track as u64;
        let last_track = (start + sectors.max(1) as u64 - 1) / self.sectors_per_track as u64;
        let switches = last_track - first_track;
        per_sector * sectors as u64 + self.head_switch * switches
    }

    /// Full mechanical service computation for a request starting at
    /// absolute sector `start` of length `sectors`, with the arm currently
    /// at `head_cyl`, starting service at time `now`.
    ///
    /// The platter is modelled as rotating continuously since time zero:
    /// sector `s` of a track passes under the head when
    /// `t mod rotation == s/spt * rotation`.
    pub fn service(
        &self,
        now: SimTime,
        head_cyl: u32,
        start: u64,
        sectors: u32,
    ) -> ServiceBreakdown {
        let target_cyl = self.cylinder_of(start);
        let overhead = self.controller_overhead;
        let seek = self.seek_time(head_cyl, target_cyl);
        // Rotational position when the head arrives.
        let arrival = now + overhead + seek;
        let rot_ns = self.rotation.as_nanos();
        let angle_ns = arrival.as_nanos() % rot_ns;
        let sector_in_track = (start % self.sectors_per_track as u64) as u32;
        let target_ns = rot_ns * sector_in_track as u64 / self.sectors_per_track as u64;
        let wait_ns = (target_ns + rot_ns - angle_ns) % rot_ns;
        ServiceBreakdown {
            overhead,
            seek,
            rotation: SimDuration::from_nanos(wait_ns),
            transfer: self.transfer_time(start, sectors),
        }
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel::hp97560()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let m = DiskModel::hp97560();
        assert_eq!(m.total_sectors(), 2_684_016);
        assert_eq!(m.cylinder_of(0), 0);
        assert_eq!(m.cylinder_of(19 * 72), 1);
        assert_eq!(m.cylinder_of(m.total_sectors() - 1), 1961);
    }

    #[test]
    fn first_sector_of_bounds_every_cylinder() {
        let m = DiskModel::hp97560();
        for c in 0..m.cylinders() {
            let first = m.first_sector_of(c);
            assert_eq!(m.cylinder_of(first), c);
            if c > 0 {
                assert_eq!(m.cylinder_of(first - 1), c - 1);
            }
        }
    }

    #[test]
    fn seek_curve_matches_published_form() {
        let m = DiskModel::hp97560();
        // d = 1: 3.24 + 0.4 = 3.64 ms
        let t1 = m.seek_time(100, 101);
        assert!((t1.as_millis_f64() - 3.64).abs() < 1e-6, "{t1}");
        // d = 400 (> knee): 8.0 + 0.008*400 = 11.2 ms
        let t2 = m.seek_time(0, 400);
        assert!((t2.as_millis_f64() - 11.2).abs() < 1e-6, "{t2}");
        // Same cylinder: no seek.
        assert_eq!(m.seek_time(7, 7), SimDuration::ZERO);
    }

    #[test]
    fn seek_is_monotone_in_distance() {
        let m = DiskModel::hp97560();
        let mut prev = SimDuration::ZERO;
        for d in 1..1962 {
            let t = m.seek_time(0, d);
            assert!(t >= prev, "seek not monotone at d={d}");
            prev = t;
        }
    }

    #[test]
    fn seek_curve_continuous_at_knee() {
        let m = DiskModel::hp97560();
        let at = m.seek_time(0, 383).as_millis_f64();
        let after = m.seek_time(0, 384).as_millis_f64();
        assert!((after - at).abs() < 0.5, "discontinuity {at} -> {after}");
    }

    #[test]
    fn seek_scale_halves_seeks() {
        let full = DiskModel::hp97560();
        let half = DiskModel::hp97560().with_seek_scale(0.5);
        let d_full = full.seek_time(0, 1000);
        let d_half = half.seek_time(0, 1000);
        assert!((d_half.as_millis_f64() * 2.0 - d_full.as_millis_f64()).abs() < 1e-6);
        // Rotation and transfer are unaffected.
        assert_eq!(full.rotation_time(), half.rotation_time());
    }

    #[test]
    fn transfer_time_scales_with_sectors() {
        let m = DiskModel::hp97560();
        let one = m.transfer_time(0, 1);
        let eight = m.transfer_time(0, 8);
        assert_eq!(one * 8, eight);
        // One sector ≈ rotation / 72 ≈ 208 us.
        assert!((one.as_secs_f64() * 1e6 - 208.2).abs() < 1.0, "{one}");
    }

    #[test]
    fn transfer_across_track_boundary_adds_head_switch() {
        let m = DiskModel::hp97560();
        let within = m.transfer_time(0, 72); // exactly one track
        let crossing = m.transfer_time(0, 73); // spills onto next track
        let delta = crossing - within;
        let per_sector = m.rotation_time() / 72;
        assert_eq!(delta, per_sector + SimDuration::from_micros(2_500));
    }

    #[test]
    fn rotation_wait_is_bounded_by_one_revolution() {
        let m = DiskModel::hp97560();
        for t_ms in [0u64, 3, 7, 11, 100] {
            for sector in [0u64, 35, 71, 1000, 50_000] {
                let b = m.service(SimTime::from_millis(t_ms), 0, sector, 8);
                assert!(b.rotation < m.rotation_time(), "{:?}", b);
            }
        }
    }

    #[test]
    fn service_total_sums_components() {
        let m = DiskModel::hp97560();
        let b = m.service(SimTime::from_millis(5), 10, 100_000, 16);
        assert_eq!(b.total(), b.overhead + b.seek + b.rotation + b.transfer);
        assert!(b.total() > SimDuration::ZERO);
    }

    #[test]
    fn sequential_requests_have_no_seek() {
        let m = DiskModel::hp97560();
        let first = m.service(SimTime::ZERO, 0, 0, 8);
        let cyl = m.cylinder_of(8);
        let second = m.service(SimTime::ZERO + first.total(), cyl, 8, 8);
        assert_eq!(second.seek, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "seek scale")]
    fn zero_seek_scale_panics() {
        DiskModel::hp97560().with_seek_scale(0.0);
    }
}
