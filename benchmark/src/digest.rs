//! Output digests: a 64-bit FNV-1a hash of every simulated counter a
//! cell produced, and the pinned per-cell digests of the default seed.
//!
//! The hash is defined here rather than taken from the workspace's own
//! hashers, so no change to the code under test can move the pins.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use asymfence::prelude::MachineStats;
use asymfence_bench::RunResult;

/// Incremental FNV-1a over 64-bit words and strings.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one word, byte by byte.
    pub fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds in a string (length-prefixed).
    pub fn text(&mut self, s: &str) -> &mut Self {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds every counter of a machine's statistics.
pub fn machine_stats(h: &mut Fnv, s: &MachineStats) {
    h.word(s.cycles).word(s.deadlocked as u64);
    h.word(s.cores.len() as u64);
    for c in &s.cores {
        for v in c.values() {
            h.word(v);
        }
    }
    h.word(s.traffic.base_bytes)
        .word(s.traffic.retry_bytes)
        .word(s.traffic.messages);
}

/// Digest of one simulator cell's result: cycles, outcome, SCV flag,
/// commits, aborts and all machine statistics.
pub fn run_result(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.word(r.cycles)
        .text(&format!("{:?}", r.outcome))
        .word(r.scv as u64)
        .word(r.commits)
        .word(r.aborts);
    machine_stats(&mut h, &r.stats);
    h.finish()
}

/// Path of a workload's pinned digest file, relative to the package.
pub fn pin_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("digests")
        .join(format!("{workload}.txt"))
}

/// Parses a pinned file: `label<TAB>hex` per line, `#` comments.
pub fn parse_pins(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (label, hex) = line
            .split_once('\t')
            .ok_or_else(|| format!("line {}: expected label<TAB>digest", n + 1))?;
        let d = u64::from_str_radix(hex.trim(), 16)
            .map_err(|e| format!("line {}: bad digest: {e}", n + 1))?;
        if out.insert(label.to_string(), d).is_some() {
            return Err(format!("line {}: duplicate label {label}", n + 1));
        }
    }
    Ok(out)
}

/// Renders a pinned file for `cells` (label, digest) in order.
pub fn render_pins(workload: &str, seed: u64, cells: &[(String, u64)]) -> String {
    let mut out = format!(
        "# Pinned output digests: workload {workload}, seed {seed}.\n\
         # Regenerate with --bless (see README.md).\n"
    );
    for (label, d) in cells {
        out.push_str(&format!("{label}\t{d:016x}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_round_trip() {
        let cells = vec![("a/S+/8c".to_string(), 1u64), ("b".to_string(), u64::MAX)];
        let pins = parse_pins(&render_pins("stm", 7, &cells)).unwrap();
        assert_eq!(pins.len(), 2);
        assert_eq!(pins["a/S+/8c"], 1);
        assert_eq!(pins["b"], u64::MAX);
    }

    #[test]
    fn fnv_separates_word_order() {
        let a = Fnv::new().word(1).word(2).finish();
        let b = Fnv::new().word(2).word(1).finish();
        assert_ne!(a, b);
    }
}
