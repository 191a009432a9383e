//! Writing span-trace artifacts to disk for the `--trace-out` flags.
//!
//! Every binary that accepts `--trace-out DIR` funnels through
//! [`write_all`], so one experiment always produces the same trio of
//! files: `<id>.trace.json` (Chrome trace-event JSON, loadable in
//! Perfetto / `chrome://tracing`), `<id>.folded` (folded stacks for
//! `flamegraph.pl` / `inferno`), and `<id>.spans.jsonl` (one span per
//! line for ad-hoc analysis). All three are rendered from the modeled
//! clock, so re-running an experiment rewrites byte-identical files.

use gpudb_obs::{chrome, flame, jsonl, SpanTree};
use std::io;
use std::path::{Path, PathBuf};

/// The three artifact paths for one experiment id under `dir`.
pub fn artifact_paths(dir: &Path, id: &str) -> [PathBuf; 3] {
    [
        dir.join(format!("{id}.trace.json")),
        dir.join(format!("{id}.folded")),
        dir.join(format!("{id}.spans.jsonl")),
    ]
}

/// Export `tree` as Chrome trace, folded stacks and JSONL under `dir`
/// (created if missing), returning the three paths written.
pub fn write_all(dir: &Path, id: &str, tree: &SpanTree) -> io::Result<[PathBuf; 3]> {
    std::fs::create_dir_all(dir)?;
    let paths = artifact_paths(dir, id);
    std::fs::write(&paths[0], chrome::trace_json(tree))?;
    std::fs::write(&paths[1], flame::folded(tree))?;
    std::fs::write(&paths[2], jsonl::spans(tree))?;
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoke;

    #[test]
    fn writes_the_three_artifacts() {
        let dir = std::env::temp_dir().join("gpudb-traceout-test");
        let _ = std::fs::remove_dir_all(&dir);
        let (_, _, tree) = smoke::run_one_logged("fig4_range").unwrap();
        let paths = write_all(&dir, "fig4_range", &tree).unwrap();
        for path in &paths {
            let text = std::fs::read_to_string(path).unwrap();
            assert!(!text.is_empty(), "{}", path.display());
        }
        assert!(std::fs::read_to_string(&paths[0])
            .unwrap()
            .contains("traceEvents"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
