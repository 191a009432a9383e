//! Work counters and phase-attributed modeled time.
//!
//! The simulator executes the paper's algorithms for real (so results are
//! bit-exact), but the *performance* claims of the paper concern 2004
//! hardware. Every unit of architectural work — fragments through the
//! fixed-function tests, shader instructions, bytes over the AGP bus,
//! occlusion-query read-backs — is counted here and converted to modeled
//! time by [`crate::cost::HardwareProfile`].

use serde::{Deserialize, Serialize};

/// Phases the database layer attributes device work to. The paper's figures
/// repeatedly distinguish "timings include time to copy data values into the
/// depth buffer" from "considering only computation time", so the breakdown
/// is a first-class concept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Host → device texture uploads over AGP.
    Upload,
    /// Copying attribute textures into the depth buffer (§5.4).
    CopyToDepth,
    /// The actual query computation passes.
    Compute,
    /// Device → host result transfer (occlusion counts, buffer read-backs).
    Readback,
    /// Anything not explicitly attributed.
    Other,
}

/// All phases, for iteration.
pub const ALL_PHASES: [Phase; 5] = [
    Phase::Upload,
    Phase::CopyToDepth,
    Phase::Compute,
    Phase::Readback,
    Phase::Other,
];

impl Phase {
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Upload => 0,
            Phase::CopyToDepth => 1,
            Phase::Compute => 2,
            Phase::Readback => 3,
            Phase::Other => 4,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Upload => "upload",
            Phase::CopyToDepth => "copy-to-depth",
            Phase::Compute => "compute",
            Phase::Readback => "readback",
            Phase::Other => "other",
        }
    }
}

/// Modeled time split by phase, in integer nanoseconds — the device's
/// modeled clock. Every charge (a draw, an upload, a readback, a sync
/// drain, a mipmap level, a retry backoff) is rounded to whole
/// nanoseconds once, where it is charged, so interval deltas and sums of
/// deltas are exact: per-stage records always add up to the query total.
///
/// The clock saturates instead of overflowing: a charge that would push
/// [`PhaseNanos::total`] past `u64::MAX` is clamped to the room left, so
/// `total()` never wraps and a delta of it equals what was charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseNanos {
    /// Host → device upload.
    pub upload: u64,
    /// Attribute copy into the depth buffer (§5.4).
    pub copy_to_depth: u64,
    /// Computation passes.
    pub compute: u64,
    /// Occlusion/result readback.
    pub readback: u64,
    /// Unattributed time.
    pub other: u64,
}

impl PhaseNanos {
    fn phases(&self) -> [u64; 5] {
        [
            self.upload,
            self.copy_to_depth,
            self.compute,
            self.readback,
            self.other,
        ]
    }

    /// Charge `ns` to a phase, clamped so the total cannot overflow;
    /// returns the nanoseconds actually charged.
    pub fn add(&mut self, phase: Phase, ns: u64) -> u64 {
        let charged = ns.min(u64::MAX - self.total());
        let slot = match phase {
            Phase::Upload => &mut self.upload,
            Phase::CopyToDepth => &mut self.copy_to_depth,
            Phase::Compute => &mut self.compute,
            Phase::Readback => &mut self.readback,
            Phase::Other => &mut self.other,
        };
        *slot += charged;
        charged
    }

    /// Modeled nanoseconds attributed to a phase.
    pub fn get(&self, phase: Phase) -> u64 {
        self.phases()[phase.index()]
    }

    /// Total modeled nanoseconds across phases.
    pub fn total(&self) -> u64 {
        self.phases().into_iter().fold(0, u64::saturating_add)
    }

    /// Total excluding the copy-to-depth phase — the paper's "considering
    /// only computation time" number.
    pub fn compute_only(&self) -> u64 {
        self.total() - self.copy_to_depth
    }

    /// Component-wise difference (`self - earlier`), for interval
    /// measurements around an operation; `earlier` should be an older
    /// snapshot of the same (monotonic) clock, and a phase that went
    /// backwards (a stats reset in between) reads as zero.
    pub fn since(&self, earlier: &PhaseNanos) -> PhaseNanos {
        PhaseNanos {
            upload: self.upload.saturating_sub(earlier.upload),
            copy_to_depth: self.copy_to_depth.saturating_sub(earlier.copy_to_depth),
            compute: self.compute.saturating_sub(earlier.compute),
            readback: self.readback.saturating_sub(earlier.readback),
            other: self.other.saturating_sub(earlier.other),
        }
    }

    /// Component-wise sum, for aggregating operations (saturating).
    pub fn plus(&self, other: &PhaseNanos) -> PhaseNanos {
        PhaseNanos {
            upload: self.upload.saturating_add(other.upload),
            copy_to_depth: self.copy_to_depth.saturating_add(other.copy_to_depth),
            compute: self.compute.saturating_add(other.compute),
            readback: self.readback.saturating_add(other.readback),
            other: self.other.saturating_add(other.other),
        }
    }
}

/// Host wall-clock seconds spent simulating, split by phase. Reported for
/// transparency only; it is not a claim about 2004 hardware and never
/// feeds the modeled clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimes {
    seconds: [f64; 5],
}

impl PhaseTimes {
    /// Add host seconds to a phase.
    #[inline]
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        self.seconds[phase.index()] += seconds;
    }

    /// Host seconds attributed to a phase.
    #[inline]
    pub fn get(&self, phase: Phase) -> f64 {
        self.seconds[phase.index()]
    }

    /// Total host seconds across phases.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }
}

/// Cumulative device work counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GpuStats {
    /// Fragments generated by rasterization (post scissor).
    pub fragments_generated: u64,
    /// Fragments that executed a fragment program (early-z rejected
    /// fragments skip shading).
    pub fragments_shaded: u64,
    /// Fragments rejected by early-z before shading.
    pub fragments_early_rejected: u64,
    /// Fragments that passed every test (the occlusion-query metric).
    pub fragments_passed: u64,
    /// Total fragment-program instructions executed (full static cost per
    /// shaded fragment; the real pipeline cannot early-out either).
    pub program_instructions: u64,
    /// Number of draw calls (rendering passes).
    pub draw_calls: u64,
    /// Synchronous occlusion-query result fetches.
    pub occlusion_readbacks: u64,
    /// Bytes uploaded host → device.
    pub bytes_uploaded: u64,
    /// Bytes read back device → host.
    pub bytes_read_back: u64,
    /// Modeled time by phase: the device's integer-nanosecond clock.
    pub modeled: PhaseNanos,
    /// Host wall-clock seconds actually spent simulating, by phase
    /// (reported for transparency; not a claim about 2004 hardware).
    pub wall: PhaseTimes,
}

impl GpuStats {
    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = GpuStats::default();
    }

    /// Total modeled seconds, derived from the integer clock.
    pub fn modeled_total(&self) -> f64 {
        self.modeled.total() as f64 * 1e-9
    }

    /// Snapshot of just the architectural work counters (no times), for
    /// interval measurements around an operation.
    pub fn counters(&self) -> WorkCounters {
        WorkCounters {
            fragments_generated: self.fragments_generated,
            fragments_shaded: self.fragments_shaded,
            fragments_early_rejected: self.fragments_early_rejected,
            fragments_passed: self.fragments_passed,
            program_instructions: self.program_instructions,
            draw_calls: self.draw_calls,
            occlusion_readbacks: self.occlusion_readbacks,
            bytes_uploaded: self.bytes_uploaded,
            bytes_read_back: self.bytes_read_back,
        }
    }
}

/// Architectural work counters without the time fields — the part of
/// [`GpuStats`] that is exactly reproducible run-to-run, used by the
/// per-operator metrics records and the perf-regression harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkCounters {
    /// Fragments generated by rasterization (post scissor).
    pub fragments_generated: u64,
    /// Fragments that executed a fragment program.
    pub fragments_shaded: u64,
    /// Fragments rejected by early-z before shading.
    pub fragments_early_rejected: u64,
    /// Fragments that passed every test.
    pub fragments_passed: u64,
    /// Total fragment-program instructions executed.
    pub program_instructions: u64,
    /// Number of draw calls (rendering passes).
    pub draw_calls: u64,
    /// Synchronous occlusion-query result fetches.
    pub occlusion_readbacks: u64,
    /// Bytes uploaded host → device.
    pub bytes_uploaded: u64,
    /// Bytes read back device → host.
    pub bytes_read_back: u64,
}

impl WorkCounters {
    /// Component-wise difference (`self - earlier`), for interval
    /// measurements around an operation; `earlier` must be an older
    /// snapshot of the same (monotonic) counters.
    pub fn since(&self, earlier: &WorkCounters) -> WorkCounters {
        WorkCounters {
            fragments_generated: self.fragments_generated - earlier.fragments_generated,
            fragments_shaded: self.fragments_shaded - earlier.fragments_shaded,
            fragments_early_rejected: self.fragments_early_rejected
                - earlier.fragments_early_rejected,
            fragments_passed: self.fragments_passed - earlier.fragments_passed,
            program_instructions: self.program_instructions - earlier.program_instructions,
            draw_calls: self.draw_calls - earlier.draw_calls,
            occlusion_readbacks: self.occlusion_readbacks - earlier.occlusion_readbacks,
            bytes_uploaded: self.bytes_uploaded - earlier.bytes_uploaded,
            bytes_read_back: self.bytes_read_back - earlier.bytes_read_back,
        }
    }

    /// Component-wise sum, for aggregating multiple operations.
    pub fn plus(&self, other: &WorkCounters) -> WorkCounters {
        WorkCounters {
            fragments_generated: self.fragments_generated + other.fragments_generated,
            fragments_shaded: self.fragments_shaded + other.fragments_shaded,
            fragments_early_rejected: self.fragments_early_rejected
                + other.fragments_early_rejected,
            fragments_passed: self.fragments_passed + other.fragments_passed,
            program_instructions: self.program_instructions + other.program_instructions,
            draw_calls: self.draw_calls + other.draw_calls,
            occlusion_readbacks: self.occlusion_readbacks + other.occlusion_readbacks,
            bytes_uploaded: self.bytes_uploaded + other.bytes_uploaded,
            bytes_read_back: self.bytes_read_back + other.bytes_read_back,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_nanos_accumulate_and_diff() {
        let mut t = PhaseNanos::default();
        t.add(Phase::Upload, 1_000);
        t.add(Phase::Compute, 2_000);
        t.add(Phase::Compute, 500);
        t.add(Phase::CopyToDepth, 4_000);
        assert_eq!(t.get(Phase::Upload), 1_000);
        assert_eq!(t.get(Phase::Compute), 2_500);
        assert_eq!(t.total(), 7_500);
        assert_eq!(t.compute_only(), 3_500);

        let mut later = t;
        later.add(Phase::Readback, 250);
        let delta = later.since(&t);
        assert_eq!(delta.get(Phase::Readback), 250);
        assert_eq!(delta.get(Phase::Compute), 0);
        assert_eq!(delta.total(), 250);
        assert_eq!(t.plus(&delta), later);
        // A clock that went backwards (stats reset) reads as zero.
        assert_eq!(PhaseNanos::default().since(&t), PhaseNanos::default());
    }

    #[test]
    fn phase_nanos_saturate_instead_of_overflowing() {
        let mut t = PhaseNanos::default();
        assert_eq!(t.add(Phase::Compute, 10), 10);
        assert_eq!(t.add(Phase::Other, u64::MAX), u64::MAX - 10);
        assert_eq!(t.total(), u64::MAX);
        assert_eq!(t.add(Phase::Readback, 1), 0, "a full clock charges nothing");
        assert_eq!(t.total(), u64::MAX);
        assert_eq!(t.plus(&t).total(), u64::MAX);
    }

    #[test]
    fn phase_times_accumulate_host_seconds() {
        let mut t = PhaseTimes::default();
        t.add(Phase::Upload, 1.0);
        t.add(Phase::Compute, 2.0);
        t.add(Phase::Compute, 0.5);
        assert_eq!(t.get(Phase::Upload), 1.0);
        assert_eq!(t.get(Phase::Compute), 2.5);
        assert_eq!(t.total(), 3.5);
    }

    #[test]
    fn stats_reset() {
        let mut s = GpuStats {
            draw_calls: 7,
            ..Default::default()
        };
        s.modeled.add(Phase::Compute, 1_000);
        s.reset();
        assert_eq!(s, GpuStats::default());
    }

    #[test]
    fn counters_snapshot_and_delta() {
        let mut s = GpuStats {
            fragments_generated: 100,
            fragments_shaded: 60,
            draw_calls: 3,
            bytes_uploaded: 4096,
            ..Default::default()
        };
        let before = s.counters();
        s.fragments_generated += 50;
        s.fragments_shaded += 10;
        s.occlusion_readbacks += 1;
        let delta = s.counters().since(&before);
        assert_eq!(delta.fragments_generated, 50);
        assert_eq!(delta.fragments_shaded, 10);
        assert_eq!(delta.occlusion_readbacks, 1);
        assert_eq!(delta.draw_calls, 0);
        assert_eq!(delta.bytes_uploaded, 0);

        let doubled = delta.plus(&delta);
        assert_eq!(doubled.fragments_generated, 100);
        assert_eq!(doubled.fragments_shaded, 20);
    }

    #[test]
    fn phase_names_distinct() {
        let names: std::collections::HashSet<_> = ALL_PHASES.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), ALL_PHASES.len());
    }
}
