//! Every workload path at toy size: 2K-insn programs, a few dozen serve
//! requests per phase.

use std::sync::Mutex;

use codense_benchmark::{run, Options, Plant, RunOutput, Sizes, Workload};

/// Telemetry counters are process-wide and every run starts a server, so
/// runs in this file never overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn toy(workload: Workload, seed: u64, trace: bool, plant: Plant) -> RunOutput {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = Options { workload, seed, seconds: 1.0, trace, sizes: Sizes::toy(workload), plant };
    run(&opts).expect("toy set-up")
}

/// `(name, unit)` of every metric in one list of BENCHMARK.json.
fn declared(list: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{list}\"")).expect("metric list");
    let body = &json[start..start + json[start..].find(']').expect("list end")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("value") + 1;
        rest[open..open + rest[open..].find('"').expect("value end")].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn emitted(out: &RunOutput) -> Vec<(String, String)> {
    out.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, _)| n == "setup_s"));
    for w in Workload::ALL {
        let out = toy(w, 7, false, Plant::default());
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.report);
        assert_eq!(emitted(&out), end_to_end, "{}", w.name());
        assert!(out.metrics.iter().all(|m| m.value > 0.0), "{}: {:?}", w.name(), out.metrics);

        let traced = toy(w, 7, true, Plant::default());
        assert_eq!(traced.failed, 0, "{} traced: {:?}", w.name(), traced.report);
        assert_eq!(emitted(&traced), per_layer, "{} traced", w.name());
    }
}

#[test]
fn planted_wrong_exit_code_is_counted() {
    let out = toy(Workload::Scale10k, 7, false, Plant { wrong_exit: true, ..Plant::default() });
    assert!(out.failed > 0 && out.failed < out.attempted, "{} of {}", out.failed, out.attempted);
    assert!(out.report.iter().any(|l| l.contains("/vm") && l.contains("native run exited")));
}

#[test]
fn planted_wrong_container_is_counted() {
    let plant = Plant { wrong_container: true, ..Plant::default() };
    let out = toy(Workload::ServeMix, 7, false, plant);
    assert!(out.failed > 0, "{:?}", out.report);
    assert!(out.report.iter().any(|l| l.contains("FAILED serve request")));
}

#[test]
fn deterministic_values_repeat_for_a_seed() {
    let a = toy(Workload::Scale10k, 11, false, Plant::default());
    let b = toy(Workload::Scale10k, 11, false, Plant::default());
    let traced = toy(Workload::Scale10k, 11, true, Plant::default());
    let held_out = toy(Workload::Scale10k, 12, false, Plant::default());
    let value = |o: &RunOutput, name| o.metrics.iter().find(|m| m.name == name).unwrap().value;
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.digest, traced.digest, "traced and untraced runs disagree");
    assert_ne!(a.digest, held_out.digest, "the seed must change the inputs");
    assert_eq!(value(&a, "ratio").to_bits(), value(&b, "ratio").to_bits());
}
