//! The host fingerprint printed with every result.

use std::path::Path;

use asymfence_common::telemetry::Json;

/// CPU model, usable parallelism, compiler, commit, seed and command.
pub fn fingerprint(seed: u64, command: &str) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("cpu".into(), Json::Str(cpu_model())),
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "rustc".into(),
            Json::Str(env!("BENCH_RUSTC_VERSION").into()),
        ),
        ("commit".into(), Json::Str(commit(Path::new(".")))),
        ("seed".into(), Json::Num(seed as f64)),
        ("command".into(), Json::Str(command.into())),
    ])
}

/// The first `model name` in `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` under `root` without
/// running git; `unknown` outside a git checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
