//! Continuous queries over a stream — the paper's §7 closing future-work
//! item ("perform continuous queries over streams using GPUs").
//!
//! Simulates a live network feed: batches of flow byte-counts arrive, a
//! sliding window stays resident on the device as a ring-buffered texture,
//! and each tick answers monitoring queries over the live window without
//! ever re-uploading it.
//!
//! ```sh
//! cargo run --release --example stream_monitor
//! ```

use gpudb::core::stream::StreamWindow;
use gpudb::core::GpuTable;
use gpudb::prelude::*;

fn main() -> EngineResult<()> {
    const WINDOW: usize = 50_000;
    const BATCH: usize = 5_000;
    const TICKS: usize = 12;

    let mut gpu = GpuTable::device_for(WINDOW, 500);
    let mut window = StreamWindow::new(&mut gpu, "flows", WINDOW)?;
    println!(
        "sliding window: {WINDOW} records on a {}x{} device; {BATCH}-record batches\n",
        gpu.width(),
        gpu.height()
    );
    println!(
        "{:>4} {:>9} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "tick", "window", "sum(bytes)", "median", "p99", ">=1MB flows", "ms (model)"
    );

    // A deterministic bursty source: quiet traffic with periodic spikes.
    let mut seed = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };

    for tick in 0..TICKS {
        let spike = tick % 4 == 3; // every 4th tick is a burst
        let batch: Vec<u32> = (0..BATCH)
            .map(|_| {
                let base = (next() % 200_000) as u32;
                if spike && next() % 10 == 0 {
                    base.saturating_mul(40).min((1 << 24) - 1)
                } else {
                    base
                }
            })
            .collect();

        let before = gpu.stats().modeled.total();
        window.push(&mut gpu, &batch)?;
        let sum = window.sum(&mut gpu)?;
        let median = window.median(&mut gpu)?;
        let p99_rank = (window.len() as f64 * 0.01).ceil().max(1.0) as usize;
        let p99 = window.kth_largest(&mut gpu, p99_rank)?;
        let heavy = window.count(&mut gpu, CompareFunc::GreaterEqual, 1 << 20)?;
        let tick_ms = (gpu.stats().modeled.total() - before) as f64 / 1e6;

        println!(
            "{:>4} {:>9} {:>12} {:>10} {:>10} {:>12} {:>10.3}{}",
            tick,
            window.len(),
            sum,
            median,
            p99,
            heavy,
            tick_ms,
            if spike { "   <-- burst" } else { "" }
        );
    }

    println!(
        "\ntotal bytes streamed over AGP: {:.2} MB (batches only — the window never \
         re-uploads)",
        gpu.stats().bytes_uploaded as f64 / (1 << 20) as f64
    );
    window.free(&mut gpu)?;
    Ok(())
}
