//! Semi-linear queries on spatial data — the paper's §4.1.2 motivation:
//! "Applications encountered in Geographical Information Systems (GIS),
//! geometric modeling, and spatial databases define geometric data objects
//! as linear inequalities of the attributes in a relational database.
//! Such geometric data objects are called semi-linear sets."
//!
//! Stores point features (x, y) plus attributes, then answers half-plane
//! and corridor queries as `(s · a) op b` kill-passes, and column-column
//! comparisons via the `a_i - a_j op 0` rewrite.
//!
//! ```sh
//! cargo run --release --example semilinear_gis
//! ```

use gpudb::core::metrics::observe;
use gpudb::cpu;
use gpudb::prelude::*;

fn main() -> EngineResult<()> {
    // A synthetic city grid: 200k point features with coordinates in a
    // 16-bit domain plus two measured attributes.
    let n = 200_000usize;
    let mut seed = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let x: Vec<u32> = (0..n).map(|_| (next() % 65536) as u32).collect();
    let y: Vec<u32> = (0..n).map(|_| (next() % 65536) as u32).collect();
    let elevation: Vec<u32> = (0..n).map(|_| (next() % 4000) as u32).collect();
    let population: Vec<u32> = (0..n).map(|_| (next() % 100_000) as u32).collect();

    let mut gpu = GpuTable::device_for(n, 1000);
    let table = GpuTable::upload(
        &mut gpu,
        "features",
        &[
            ("x", &x),
            ("y", &y),
            ("elevation", &elevation),
            ("population", &population),
        ],
    )?;
    println!("loaded {n} point features");
    let raw: Vec<&[u32]> = vec![&x, &y, &elevation, &population];

    // --- Half-plane query: which features lie north-east of the line
    //     x + y >= 80000? One fragment-program pass, no depth copy. ---
    let coeffs = [1.0f32, 1.0, 0.0, 0.0];
    let (count, t) = observe(&mut gpu, "semilinear", n as u64, |gpu| {
        semilinear_select(gpu, &table, &coeffs, CompareFunc::GreaterEqual, 80_000.0)
            .unwrap()
            .matched()
    });
    let cpu_count =
        cpu::semilinear::semilinear_count(&raw, &coeffs, cpu::CmpOp::Ge, 80_000.0) as u64;
    assert_eq!(count, cpu_count);
    println!(
        "\n[half-plane] x + y >= 80000: {count} features \
         (modeled {:.3} ms, zero copy-to-depth)",
        t.modeled_ms()
    );

    // --- Oblique corridor: features within the band
    //     20000 <= 0.6x - 0.8y + 50000 <= 28000, expressed as two
    //     semi-linear passes intersected on the host counts. ---
    let band = [0.6f32, -0.8, 0.0, 0.0];
    let above = semilinear_select(
        &mut gpu,
        &table,
        &band,
        CompareFunc::GreaterEqual,
        20_000.0 - 50_000.0,
    )?
    .matched();
    let below = semilinear_select(
        &mut gpu,
        &table,
        &band,
        CompareFunc::Greater,
        28_000.0 - 50_000.0,
    )?
    .matched();
    println!(
        "[corridor] 20000 <= 0.6x - 0.8y + 50000 <= 28000: {} features",
        above - below
    );

    // --- Weighted scoring: flood risk = 2*pop - 30*elevation > 0,
    //     a genuine 4-attribute linear combination. ---
    let risk = [0.0f32, 0.0, -30.0, 2.0];
    let (risk_sel, t) = observe(&mut gpu, "risk", n as u64, |gpu| {
        semilinear_select(gpu, &table, &risk, CompareFunc::Greater, 0.0).unwrap()
    });
    let at_risk = risk_sel.matched();
    assert_eq!(
        at_risk,
        cpu::semilinear::semilinear_count(&raw, &risk, cpu::CmpOp::Gt, 0.0) as u64
    );
    println!(
        "\n[risk score] 2*population - 30*elevation > 0: {at_risk} features \
         ({:.2}% of city, modeled {:.3} ms)",
        100.0 * at_risk as f64 / n as f64,
        t.modeled_ms()
    );
    let worst_pop = aggregate::max(&mut gpu, &table, 3, Some(&risk_sel))?;
    println!("  largest population among at-risk features: {worst_pop}");

    // --- Column-column comparison (the paper's a_i op a_j rewrite):
    //     features where x > y, i.e. south-east half of the grid. ---
    let (se_count, t) = observe(&mut gpu, "attribute-compare", n as u64, |gpu| {
        compare_attributes(gpu, &table, 0, 1, CompareFunc::Greater)
            .unwrap()
            .matched()
    });
    let expected = (0..n).filter(|&i| x[i] > y[i]).count() as u64;
    assert_eq!(se_count, expected);
    println!(
        "\n[attribute compare] x > y: {se_count} features (modeled {:.3} ms, \
         planned as the semi-linear query x - y > 0)",
        t.modeled_ms()
    );

    println!("\nall GPU results verified against CPU references ✓");
    Ok(())
}
