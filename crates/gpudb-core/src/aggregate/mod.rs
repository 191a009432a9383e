//! Aggregation queries (§4.3): COUNT via occlusion queries, MIN/MAX/median
//! via the bitwise `KthLargest`, SUM/AVG via the bitwise `Accumulator`,
//! plus the rejected mipmap-SUM alternative for the ablation study.

pub mod accumulator;
pub mod count;
pub mod kth;
pub mod mipmap_sum;

pub use accumulator::{avg, sum, sum_with_depth_mask};
pub use count::{count, count_all, selectivity};
pub use kth::{kth_largest, kth_smallest, max, median, min, percentile};
pub use mipmap_sum::mipmap_sum;
