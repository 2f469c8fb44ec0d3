//! `codense-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and the
//! metrics. A traced run also writes its spans to
//! `benchmark/traces/<workload>-<seed>.jsonl`.

use std::process::ExitCode;

use codense_benchmark::{result_json, run, Options, Plant, Sizes, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: codense-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {name}\n{}", usage()))
    };
    let workload = flag("--workload")?;
    let workload = Workload::parse(workload)
        .ok_or_else(|| format!("unknown workload `{workload}`\n{}", usage()))?;
    let seed = flag("--seed")?.parse().map_err(|_| "bad --seed (expected an integer)")?;
    let seconds: f64 = flag("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match flag("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}` (expected 0 or 1)")),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::full(workload),
        plant: Plant::default(),
    })
}

fn write_trace(opts: &Options, out: &codense_benchmark::RunOutput) -> std::io::Result<String> {
    let dir = std::path::Path::new("benchmark/traces");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-{}.jsonl", opts.workload.name(), opts.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    out.tracer.write_jsonl(&mut f)?;
    std::io::Write::flush(&mut f)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for line in &out.report {
        eprintln!("{line}");
    }
    eprintln!("digest: {:016x}", out.digest);
    if opts.trace {
        match write_trace(&opts, &out) {
            Ok(path) => eprintln!("spans: {path}"),
            Err(e) => {
                eprintln!("writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}
