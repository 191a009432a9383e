//! Aggregation queries (§4.3): MIN/MAX/median via the bitwise
//! `KthLargest`, SUM/AVG via the bitwise `Accumulator`, plus the rejected
//! mipmap-SUM alternative for the ablation study. COUNT is the count a
//! [`crate::selection::Selection`] carries from the pass that built it
//! (§4.3.1, §5.11).

pub mod accumulator;
pub mod kth;
pub mod mipmap_sum;

pub use accumulator::{avg, sum, sum_with_depth_mask};
pub use kth::{kth_largest, kth_smallest, max, median, min, percentile};
pub use mipmap_sum::mipmap_sum;
