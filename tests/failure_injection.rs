//! Failure injection: resource exhaustion, precision limits, invalid
//! arguments — the error paths a production library must handle cleanly.

use gpudb::core::{EngineError, GpuTable};
use gpudb::prelude::*;
use gpudb::sim::GpuError;

#[test]
fn vram_exhaustion_is_reported_not_panicked() {
    let mut gpu = GpuTable::device_for(1_000, 100);
    // Leave room for nothing beyond the framebuffer.
    gpu.set_vram_budget(gpu.vram_used() + 100);
    let values: Vec<u32> = (0..1_000).collect();
    let err = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap_err();
    match err {
        EngineError::Gpu(GpuError::OutOfVideoMemory {
            requested,
            available,
        }) => {
            assert!(requested > available);
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn out_of_core_fallback_pattern() {
    // §6.1 "Memory Management": with tens of millions of records "we would
    // use out-of-core techniques and swap textures in and out of video
    // memory". Demonstrate the chunked pattern the library supports:
    // process a table in segments, freeing each before the next.
    let total: usize = 30_000;
    let chunk = 10_000;
    let values: Vec<u32> = (0..total as u32).collect();

    let mut gpu = GpuTable::device_for(chunk, 100);
    // Budget: framebuffer + one chunk only.
    gpu.set_vram_budget(gpu.vram_used() + chunk * 4 + 1024);

    let mut matches = 0u64;
    for part in values.chunks(chunk) {
        let table = GpuTable::upload(&mut gpu, "part", &[("a", part)]).unwrap();
        let count = compare_select(&mut gpu, &table, 0, CompareFunc::GreaterEqual, 15_000)
            .unwrap()
            .matched();
        matches += count;
        table.free(&mut gpu).unwrap();
    }
    assert_eq!(
        matches,
        values.iter().filter(|&&v| v >= 15_000).count() as u64
    );
}

#[test]
fn attribute_wider_than_24_bits_rejected() {
    let mut gpu = GpuTable::device_for(2, 2);
    let values = vec![1u32 << 24, 0];
    match GpuTable::upload(&mut gpu, "t", &[("wide", &values)]).unwrap_err() {
        EngineError::AttributeTooWide { column, bits } => {
            assert_eq!(column, "wide");
            assert_eq!(bits, 25);
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn framebuffer_too_small_rejected() {
    let mut gpu = Gpu::geforce_fx_5900(10, 2);
    let values: Vec<u32> = (0..100).collect();
    assert!(matches!(
        GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap_err(),
        EngineError::FramebufferTooSmall {
            needed: 10,
            available: 2
        }
    ));
}

#[test]
fn invalid_k_and_empty_domains() {
    let values: Vec<u32> = (0..10).collect();
    let mut gpu = GpuTable::device_for(10, 5);
    let table = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap();

    assert!(matches!(
        aggregate::kth_largest(&mut gpu, &table, 0, 0, None).unwrap_err(),
        EngineError::InvalidK {
            k: 0,
            available: 10
        }
    ));
    assert!(matches!(
        aggregate::kth_largest(&mut gpu, &table, 0, 11, None).unwrap_err(),
        EngineError::InvalidK {
            k: 11,
            available: 10
        }
    ));

    // An empty selection turns every order statistic into an error.
    let sel = compare_select(&mut gpu, &table, 0, CompareFunc::Greater, 100).unwrap();
    assert_eq!(sel.matched(), 0);
    assert!(matches!(
        aggregate::median(&mut gpu, &table, 0, Some(&sel)).unwrap_err(),
        EngineError::EmptyInput
    ));
    assert!(matches!(
        aggregate::avg(&mut gpu, &table, 0, Some(&sel)).unwrap_err(),
        EngineError::EmptyInput
    ));
    // COUNT and SUM are total functions.
    assert_eq!(aggregate::sum(&mut gpu, &table, 0, Some(&sel)).unwrap(), 0);
}

#[test]
fn column_lookup_failures() {
    let values: Vec<u32> = (0..4).collect();
    let mut gpu = GpuTable::device_for(4, 2);
    let table = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap();
    assert!(matches!(
        table.column_index("missing").unwrap_err(),
        EngineError::ColumnNotFound(_)
    ));
    assert!(matches!(
        gpudb::core::predicate::compare_select(&mut gpu, &table, 5, CompareFunc::Less, 1)
            .unwrap_err(),
        EngineError::ColumnIndexOutOfRange(5)
    ));
}

#[test]
fn malformed_sql_reports_invalid_query() {
    for sql in [
        "",
        "SELECT",
        "SELECT COUNT(*)",
        "SELECT COUNT(*) FROM t WHERE",
        "SELECT NOPE(a) FROM t",
        "SELECT COUNT(*) FROM t WHERE a >",
        "SELECT COUNT(*) FROM t WHERE (a > 1",
    ] {
        assert!(
            matches!(
                gpudb::core::query::parse(sql),
                Err(EngineError::InvalidQuery(_))
            ),
            "{sql:?} should fail to parse"
        );
    }
}

#[test]
fn query_against_wrong_schema_fails_cleanly() {
    let values: Vec<u32> = (0..4).collect();
    let mut gpu = GpuTable::device_for(4, 2);
    let table = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap();
    let stmt = gpudb::core::query::parse("SELECT SUM(b) FROM t WHERE b < 2").unwrap();
    assert!(matches!(
        gpudb::core::query::execute(&mut gpu, &table, &stmt.query).unwrap_err(),
        EngineError::ColumnNotFound(_)
    ));
}

#[test]
fn invalid_fragment_programs_rejected_by_device() {
    let mut gpu = Gpu::geforce_fx_5900(4, 4);
    assert!(matches!(
        gpu.bind_program_source("FOO R0, R1;").unwrap_err(),
        GpuError::ProgramError(_)
    ));
    // Device state is unaffected: a valid draw still works.
    assert!(gpu.draw_full_quad(0.5).is_ok());
}

#[test]
fn empty_table_operations_are_total() {
    let mut gpu = GpuTable::device_for(0, 4);
    let empty: Vec<u32> = vec![];
    let table = GpuTable::upload(&mut gpu, "t", &[("a", &empty)]).unwrap();
    let sel = compare_select(&mut gpu, &table, 0, CompareFunc::Less, 5).unwrap();
    assert_eq!(sel.matched(), 0);
    assert_eq!(sel.read_mask(&mut gpu).unwrap().len(), 0);
    assert_eq!(aggregate::sum(&mut gpu, &table, 0, None).unwrap(), 0);
    assert!(aggregate::median(&mut gpu, &table, 0, None).is_err());
}

#[test]
fn device_survives_interleaved_errors() {
    // Errors must not corrupt device state for subsequent correct calls.
    let values: Vec<u32> = (0..50).collect();
    let mut gpu = GpuTable::device_for(50, 10);
    let table = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap();

    for _ in 0..3 {
        let _ = aggregate::kth_largest(&mut gpu, &table, 0, 999, None).unwrap_err();
        let _ = gpu.bind_program_source("BROKEN").unwrap_err();
        let count = compare_select(&mut gpu, &table, 0, CompareFunc::Less, 25)
            .unwrap()
            .matched();
        assert_eq!(count, 25);
    }
}
