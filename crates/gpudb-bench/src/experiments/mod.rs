//! One module per reproduced figure/claim of the paper's evaluation.

pub mod ablations;
pub mod census_consistency;
pub mod fig10_accumulator;
pub mod fig2_copy;
pub mod fig3_predicate;
pub mod fig4_range;
pub mod fig5_multiattr;
pub mod fig6_semilinear;
pub mod fig7_kth;
pub mod fig8_median;
pub mod fig9_kth_selective;
pub mod selectivity_analysis;

use crate::report::{FigureResult, Scale};
use gpudb_core::EngineResult;

/// All experiment ids, in paper order.
pub const ALL_EXPERIMENTS: [&str; 17] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "sel",
    "census",
    "abl_mipmap",
    "abl_range",
    "abl_sync",
    "abl_earlyz",
    "abl_wishlist",
    "abl_skew",
];

/// Run one experiment by id.
pub fn run(id: &str, scale: Scale) -> EngineResult<FigureResult> {
    match id {
        "fig2" => fig2_copy::run(scale),
        "fig3" => fig3_predicate::run(scale),
        "fig4" => fig4_range::run(scale),
        "fig5" => fig5_multiattr::run(scale),
        "fig6" => fig6_semilinear::run(scale),
        "fig7" => fig7_kth::run(scale),
        "fig8" => fig8_median::run(scale),
        "fig9" => fig9_kth_selective::run(scale),
        "fig10" => fig10_accumulator::run(scale),
        "sel" => selectivity_analysis::run(scale),
        "census" => census_consistency::run(scale),
        "abl_mipmap" => ablations::mipmap(scale),
        "abl_range" => ablations::range_vs_cnf(scale),
        "abl_sync" => ablations::sync_overhead(scale),
        "abl_earlyz" => ablations::early_z(scale),
        "abl_wishlist" => ablations::wishlist(scale),
        "abl_skew" => ablations::data_independence(scale),
        other => Err(gpudb_core::EngineError::InvalidQuery(format!(
            "unknown experiment {other:?}; known: {ALL_EXPERIMENTS:?}"
        ))),
    }
}
