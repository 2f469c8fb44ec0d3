//! The codense repository benchmark.
//!
//! One command, seeded by its argument, drives the compress path (module
//! bytes → verified container), the VM path (container bytes → completed
//! run) and a serve round trip through the workspace crates' public
//! functions, checks every output, and reports end-to-end metrics or, in a
//! traced run, per-layer metrics. See `README.md` for the metric
//! definitions.

mod batch;
mod serve;
mod stats;
pub mod trace;
mod workload;

pub use workload::{run, Metric, Options, Plant, RunOutput, Sizes, Workload};

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric with its unit.
pub fn result_json(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit Rust prints (non-finite values,
/// which JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
