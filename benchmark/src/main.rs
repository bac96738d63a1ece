//! Command-line entry point of the benchmark.
//!
//! ```text
//! asymfence-benchmark --workload stm|cilk|fence-tools --seed N --seconds S --trace 0|1 [--bless]
//! ```
//!
//! Prints a human summary and the host fingerprint, then, as the last
//! line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A traced run also writes its
//! spans to `.bench_out/spans-<workload>-<seed>.json`.

use std::path::Path;
use std::process::ExitCode;

use asymfence_benchmark::gen::{Workload, DEFAULT_SEED};
use asymfence_benchmark::host;
use asymfence_benchmark::run::{self, Args};
use asymfence_common::telemetry::Json;

const USAGE: &str = "usage: asymfence-benchmark --workload stm|cilk|fence-tools \
                     [--seed N] [--seconds S] [--trace 0|1] [--bless]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Stm,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        bless: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let command = format!("asymfence-benchmark {}", argv.join(" "));
    let report = run::run(&args);

    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("# {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(spans) = &report.spans {
        let dir = Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.render())) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        Json::Obj(vec![(
            "host".into(),
            host::fingerprint(args.seed, &command)
        )])
        .render_compact()
    );
    println!("{}", report.result_json().render_compact());
    ExitCode::SUCCESS
}
