//! The hardware cost model: converts counted work into modeled time on the
//! paper's evaluation platform.
//!
//! Calibration anchors, all taken from the paper itself:
//!
//! * §5: "an NVIDIA GeForceFX 5900 Ultra graphics processor [...] can
//!   process up to 8 pixels at processor clock rate of 450 MHz" and "We
//!   transfer textures from the CPU to the graphics processor using an AGP
//!   8X interface."
//! * §6.2.2: "we can render a single quad of size 1000×1000 in 0.278 ms"
//!   — exactly `10^6 / (8 · 450 MHz)`, which fixes the fixed-function cost
//!   at one fragment per pipe per clock.
//! * §6.2.2: "Rendering these quads should take 5.28 ms. The observed time
//!   for this computation is 6.6 ms" — the 19-pass loop of `KthLargest`
//!   therefore carries ≈ 0.07 ms of per-pass synchronization latency
//!   (each iteration must read the occlusion count before the next pass).
//! * §5.11: "we can obtain the number of selected values within 0.25 ms"
//!   — an upper bound consistent with the 0.07 ms per-pass latency plus
//!   pipeline flush.

use crate::program::isa::FragmentProgram;
use crate::stats::{GpuStats, Phase};
use serde::{Deserialize, Serialize};

/// Performance parameters of a modeled device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareProfile {
    /// Human-readable name.
    pub name: String,
    /// Fragment/core clock in Hz.
    pub core_clock_hz: f64,
    /// Number of parallel pixel pipelines.
    pub pixel_pipes: u32,
    /// Cycles a fragment spends in the fixed-function test/write path.
    pub fixed_fragment_cycles: f64,
    /// Per-pass cost of issuing a draw call (driver + setup).
    pub draw_call_overhead_s: f64,
    /// Latency of a *synchronous* occlusion-query result fetch (the pipeline
    /// must drain). Asynchronous queries are free, per §5.3.
    pub occlusion_sync_latency_s: f64,
    /// Host→device bandwidth (AGP 8× ≈ 2.1 GB/s).
    pub upload_bytes_per_sec: f64,
    /// Device→host bandwidth (readbacks went over PCI, ≈ 266 MB/s).
    pub readback_bytes_per_sec: f64,
    /// Fixed latency added to any buffer readback.
    pub readback_latency_s: f64,
    /// Whether the device supports the §6.1 depth-compare-mask extension
    /// (hypothetical in 2004; used for the hardware-wishlist ablation).
    pub has_depth_compare_mask: bool,
    /// Whether the device supports `EXT_depth_bounds_test` (§4.4's Range
    /// routine requires it; NV35 shipped the extension).
    pub has_depth_bounds: bool,
}

impl HardwareProfile {
    /// The paper's GPU: NVIDIA GeForce FX 5900 Ultra.
    pub fn geforce_fx_5900() -> HardwareProfile {
        HardwareProfile {
            name: "NVIDIA GeForce FX 5900 Ultra".to_string(),
            core_clock_hz: 450e6,
            pixel_pipes: 8,
            fixed_fragment_cycles: 1.0,
            draw_call_overhead_s: 10e-6,
            occlusion_sync_latency_s: 0.07e-3,
            upload_bytes_per_sec: 2.1e9,
            readback_bytes_per_sec: 266e6,
            readback_latency_s: 0.1e-3,
            has_depth_compare_mask: false,
            has_depth_bounds: true,
        }
    }

    /// The paper's GPU plus the §6.1 wishlist extension: a comparison mask
    /// for the depth function.
    pub fn geforce_fx_5900_with_depth_mask() -> HardwareProfile {
        HardwareProfile {
            name: "GeForce FX 5900 Ultra + depth compare mask (hypothetical)".to_string(),
            has_depth_compare_mask: true,
            ..HardwareProfile::geforce_fx_5900()
        }
    }

    /// The paper's GPU with `EXT_depth_bounds_test` withdrawn — a driver
    /// or card (pre-NV35) without the extension. Routine 4.4's Range must
    /// fall back to two ordinary depth-test passes on this profile.
    pub fn geforce_fx_5900_no_depth_bounds() -> HardwareProfile {
        HardwareProfile {
            name: "GeForce FX 5900 Ultra (no depth-bounds extension)".to_string(),
            has_depth_bounds: false,
            ..HardwareProfile::geforce_fx_5900()
        }
    }

    /// An idealized device with no per-pass or synchronization overhead.
    /// Used by ablation benchmarks to isolate algorithmic cost.
    pub fn ideal() -> HardwareProfile {
        HardwareProfile {
            name: "ideal (no overheads)".to_string(),
            draw_call_overhead_s: 0.0,
            occlusion_sync_latency_s: 0.0,
            readback_latency_s: 0.0,
            ..HardwareProfile::geforce_fx_5900()
        }
    }

    /// Seconds of fill to push `fragments` through the fixed-function
    /// path while `shaded` of them additionally execute `program_cycles`
    /// each.
    ///
    /// The fragment processors are the throughput bottleneck: a fragment
    /// with an n-cycle program occupies its pipe for
    /// `max(fixed_cycles, program_cycles)` — on NV3x the fixed-function
    /// tests are pipelined behind shading, so a pure fixed-function
    /// fragment costs `fixed_fragment_cycles` and a shaded fragment costs
    /// its program cycles (never less than the fixed path).
    pub(crate) fn fill_seconds(&self, fragments: u64, shaded: u64, program_cycles: u32) -> f64 {
        let fixed_only = fragments.saturating_sub(shaded) as f64 * self.fixed_fragment_cycles;
        let shaded_cost =
            shaded as f64 * f64::max(self.fixed_fragment_cycles, program_cycles as f64);
        (fixed_only + shaded_cost) / (self.pixel_pipes as f64 * self.core_clock_hz)
    }

    /// Nanoseconds of fill alone, without the draw-call overhead.
    pub fn raster_ns(&self, fragments: u64, shaded: u64, program_cycles: u32) -> u64 {
        ns(self.fill_seconds(fragments, shaded, program_cycles))
    }

    /// Nanoseconds to upload `bytes` host → device.
    pub fn upload_ns(&self, bytes: u64) -> u64 {
        ns(bytes as f64 / self.upload_bytes_per_sec)
    }

    /// Nanoseconds to read `bytes` back device → host.
    pub fn readback_ns(&self, bytes: u64) -> u64 {
        ns(self.readback_latency_s + bytes as f64 / self.readback_bytes_per_sec)
    }

    /// Static per-fragment cycle cost of a program under this profile.
    pub fn program_cycles(&self, program: &FragmentProgram) -> u32 {
        program.cycle_cost
    }
}

/// Round a modeled duration to whole nanoseconds: the one rounding each
/// charge gets before it joins the integer clock
/// ([`PhaseNanos`](crate::stats::PhaseNanos)).
/// Negative and NaN durations charge nothing; an overlong one saturates.
pub(crate) fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

/// A single draw call's accounting, produced by the rasterizer and consumed
/// by both [`GpuStats`] and callers that want per-pass numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrawCost {
    /// Fragments generated (post-scissor).
    pub fragments: u64,
    /// Fragments that executed the bound program.
    pub shaded: u64,
    /// Fragments rejected by early-z before shading.
    pub early_rejected: u64,
    /// Fragments passing all tests (occlusion metric).
    pub passed: u64,
    /// Program instructions executed.
    pub instructions: u64,
    /// Modeled nanoseconds for this pass.
    pub modeled_ns: u64,
}

impl DrawCost {
    /// Fold this pass into cumulative stats under `phase`.
    pub fn accumulate(&self, stats: &mut GpuStats, phase: Phase) {
        stats.fragments_generated += self.fragments;
        stats.fragments_shaded += self.shaded;
        stats.fragments_early_rejected += self.early_rejected;
        stats.fragments_passed += self.passed;
        stats.program_instructions += self.instructions;
        stats.draw_calls += 1;
        stats.modeled.add(phase, self.modeled_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::parser::assemble;

    #[test]
    fn quad_fill_rate_matches_paper_anchor() {
        // §6.2.2: a 1000×1000 fixed-function quad renders in 0.278 ms.
        let hw = HardwareProfile::geforce_fx_5900();
        let t = hw.raster_ns(1_000_000, 0, 0);
        assert_eq!(t, 277_778, "10^6 / (8 · 450 MHz), to the nearest ns");
    }

    #[test]
    fn kth_largest_19_pass_anchor() {
        // §6.2.2: 19 passes observed at 6.6 ms (modeled fill 5.28 ms +
        // synchronization). Our model: 19 * (0.278 ms + draw overhead +
        // occlusion sync) ≈ 6.6 ms.
        let hw = HardwareProfile::geforce_fx_5900();
        let per_pass = hw.raster_ns(1_000_000, 0, 0)
            + ns(hw.draw_call_overhead_s)
            + ns(hw.occlusion_sync_latency_s);
        let total = 19 * per_pass;
        assert!(total.abs_diff(6_600_000) < 300_000, "got {total} ns");
    }

    #[test]
    fn shaded_fragments_cost_program_cycles() {
        let hw = HardwareProfile::geforce_fx_5900();
        let prog = assemble(
            "TEX R0, fragment.texcoord[0], texture[0], 2D;
             DP4 R1.x, R0, program.env[1];
             MUL R1.x, R1.x, program.env[0].x;
             MOV result.depth, R1.x;",
        )
        .unwrap();
        assert_eq!(hw.program_cycles(&prog), 5);
        let t_shaded = hw.fill_seconds(1_000_000, 1_000_000, 5);
        let t_fixed = hw.fill_seconds(1_000_000, 0, 0);
        assert!((t_shaded / t_fixed - 5.0).abs() < 1e-9);
    }

    #[test]
    fn early_rejected_fragments_cost_fixed_path_only() {
        let hw = HardwareProfile::geforce_fx_5900();
        // half the fragments early-rejected: they pay 1 cycle, not 5.
        let t = hw.fill_seconds(1_000_000, 500_000, 5);
        let expected = (500_000.0 * 1.0 + 500_000.0 * 5.0) / (8.0 * 450e6);
        assert!((t - expected).abs() < 1e-12);
    }

    #[test]
    fn occlusion_count_readback_within_paper_bound() {
        // §5.11: selected-value count available within 0.25 ms.
        let hw = HardwareProfile::geforce_fx_5900();
        assert!(hw.occlusion_sync_latency_s <= 0.25e-3);
    }

    #[test]
    fn upload_uses_agp_bandwidth() {
        let hw = HardwareProfile::geforce_fx_5900();
        // 1M records × 4 bytes ≈ 1.9 ms at 2.1 GB/s.
        assert_eq!(hw.upload_ns(4_000_000), 1_904_762);
    }

    #[test]
    fn readback_slower_than_upload() {
        // AGP was asymmetric: readbacks crawled over PCI (§6.1 "Current PCs
        // use an AGP8x bus to transfer data from the CPU to the GPU and the
        // PCI bus from the GPU to the CPU").
        let hw = HardwareProfile::geforce_fx_5900();
        assert!(hw.readback_ns(4_000_000) > hw.upload_ns(4_000_000));
    }

    #[test]
    fn charges_round_once_to_whole_nanoseconds() {
        assert_eq!(ns(1.4e-9), 1);
        assert_eq!(ns(1.5e-9), 2);
        assert_eq!(ns(10e-6), 10_000);
        assert_eq!(ns(-1.0), 0, "negative durations charge nothing");
        assert_eq!(ns(f64::NAN), 0);
        assert_eq!(ns(1e30), u64::MAX, "overlong durations saturate");
    }

    #[test]
    fn ideal_profile_zeroes_overheads() {
        let hw = HardwareProfile::ideal();
        assert_eq!(hw.draw_call_overhead_s, 0.0);
        assert_eq!(hw.occlusion_sync_latency_s, 0.0);
        assert_eq!(hw.readback_latency_s, 0.0);
        assert_eq!(hw.pixel_pipes, 8);
    }

    #[test]
    fn draw_cost_accumulates_into_stats() {
        let mut stats = GpuStats::default();
        let dc = DrawCost {
            fragments: 100,
            shaded: 60,
            early_rejected: 40,
            passed: 30,
            instructions: 300,
            modeled_ns: 1_000_000,
        };
        dc.accumulate(&mut stats, Phase::Compute);
        dc.accumulate(&mut stats, Phase::Compute);
        assert_eq!(stats.fragments_generated, 200);
        assert_eq!(stats.fragments_shaded, 120);
        assert_eq!(stats.fragments_early_rejected, 80);
        assert_eq!(stats.fragments_passed, 60);
        assert_eq!(stats.program_instructions, 600);
        assert_eq!(stats.draw_calls, 2);
        assert_eq!(stats.modeled.get(Phase::Compute), 2_000_000);
    }
}
