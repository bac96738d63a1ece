//! The `stm` and `cilk` workloads: batches of simulator cells.
//!
//! The untraced pass runs each cell through the public engine
//! (`Runner::run` with one worker). The traced run also runs each cell
//! with plain `RunSpec::execute` (the cell time the runner overhead is
//! measured against), with `execute_traced` (what `--metrics` users pay
//! for the fence trace), and as a replica rebuilt from the layers'
//! public calls with a span around each call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use asymfence::prelude::*;
use asymfence_bench::{RunResult, RunSpec, Runner, Workload as Cell, MAX_CYCLES};
use asymfence_workloads::{cilk, stamp, tlrw, ustm};

use crate::gen::SimCell;
use crate::spans::Spans;
use crate::stats::{geomean, ratio};

/// One executed cell.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Host time of the cell.
    pub wall_ns: u64,
    /// The result, or the panic message.
    pub result: Result<RunResult, String>,
}

/// Renders a caught panic payload.
pub fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Times `f`, catching a panic as its message.
pub fn timed<R>(f: impl FnOnce() -> R) -> (u64, Result<R, String>) {
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(f)).map_err(panic_message);
    (t.elapsed().as_nanos() as u64, r)
}

/// Runs every cell once through `runner`, one `Runner::run` call per
/// cell so each cell is timed, calling `between` after each; a
/// panicking cell is recorded, not propagated.
pub fn untraced_pass(
    runner: &Runner,
    cells: &[SimCell],
    between: &mut dyn FnMut(),
) -> Vec<CellRun> {
    cells
        .iter()
        .map(|c| {
            let (wall_ns, result) = timed(|| {
                runner
                    .run(std::slice::from_ref(&c.spec))
                    .pop()
                    .expect("one spec, one result")
            });
            between();
            CellRun { wall_ns, result }
        })
        .collect()
}

/// Counts the replica collects besides its spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaCounts {
    /// Machines built from scratch.
    pub builds: u64,
    /// Machines re-armed in place.
    pub reuses: u64,
}

/// Rebuilds and runs one cell from public calls — config builder,
/// `Machine::new_shared` or `Machine::reset`, workload install,
/// `Machine::run`, `Machine::stats` and `tlrw::tally` — with a span
/// around each. `slot` is the replica's own one-machine pool.
pub fn replica_cell(
    spec: &RunSpec,
    slot: &mut Option<Machine>,
    spans: &mut Spans,
    counts: &mut ReplicaCounts,
) -> RunResult {
    spans.enter("bench.cell");
    spans.enter("bench.cell.setup");
    spans.enter("bench.config");
    let cfg = Arc::new(
        MachineConfig::builder()
            .cores(spec.cores)
            .fence_design(spec.design)
            .seed(spec.seed)
            .record_trace(false)
            .build(),
    );
    spans.exit();
    let mut m = match slot.take() {
        Some(mut m) if m.config().same_machine_shape(&cfg) => {
            spans.enter("core.reset");
            assert!(m.reset(&cfg), "same shape re-arms in place");
            spans.exit();
            counts.reuses += 1;
            m
        }
        _ => {
            spans.enter("core.new");
            let m = Machine::new_shared(Arc::clone(&cfg));
            spans.exit();
            counts.builds += 1;
            m
        }
    };
    spans.enter("workloads.install");
    let limit = match spec.workload {
        Cell::Cilk(app) => {
            cilk::setup(&mut m, app, spec.seed);
            MAX_CYCLES
        }
        Cell::Ustm { bench, window } => {
            ustm::install(&mut m, bench, spec.seed, None);
            window
        }
        Cell::Stamp(app) => {
            stamp::install(&mut m, app, spec.seed);
            MAX_CYCLES
        }
        other => panic!("not a stm/cilk cell: {}", other.name()),
    };
    spans.exit();
    spans.exit();
    spans.enter("core.run");
    let outcome = m.run(limit);
    spans.exit();
    spans.enter("bench.cell.harvest");
    let stats = m.stats();
    let (commits, aborts) = match spec.workload {
        Cell::Cilk(_) => (0, 0),
        _ => tlrw::tally(&m),
    };
    spans.exit();
    spans.exit();
    let cycles = m.now();
    *slot = Some(m);
    RunResult {
        cycles,
        stats,
        commits,
        aborts,
        outcome,
        scv: false,
    }
}

/// Whether two results are identical in every recorded field.
pub fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.cycles == b.cycles
        && a.stats == b.stats
        && a.commits == b.commits
        && a.aborts == b.aborts
        && a.outcome == b.outcome
        && a.scv == b.scv
}

/// The simulated speedups of one pass: geomeans over (application,
/// cores) groups of S+ time ÷ WS+ time and S+ time ÷ W+ time. Time is
/// cycles for run-to-completion cells and the inverse of commits for
/// windowed ustm cells. `None` when a cell of a compared design failed
/// or a ustm cell committed nothing.
pub fn speedups(cells: &[SimCell], runs: &[CellRun]) -> Option<(f64, f64)> {
    let groups = cells.iter().map(|c| c.group).max().map_or(0, |g| g + 1);
    let mut base = vec![None; groups];
    let mut ws = vec![None; groups];
    let mut w = vec![None; groups];
    for (c, r) in cells.iter().zip(runs) {
        let Ok(r) = &r.result else { continue };
        // "Time" per unit of work: larger is slower.
        let time = match c.spec.workload {
            Cell::Ustm { .. } => ratio(1.0, r.commits as f64),
            _ => r.cycles as f64,
        };
        match c.spec.design {
            FenceDesign::SPlus => base[c.group] = Some(time),
            FenceDesign::WsPlus => ws[c.group] = Some(time),
            FenceDesign::WPlus => w[c.group] = Some(time),
            _ => {}
        }
    }
    let over = |other: &[Option<f64>]| -> Option<f64> {
        let rs: Option<Vec<f64>> = base
            .iter()
            .zip(other)
            .map(|(b, o)| Some(ratio((*b)?, (*o)?)).filter(|r| *r > 0.0))
            .collect();
        rs.map(|rs| geomean(&rs))
    };
    Some((over(&ws)?, over(&w)?))
}
