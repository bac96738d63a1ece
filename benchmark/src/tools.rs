//! The `fence-tools` workload: fence synthesis over the hand-annotated
//! site benches, inference + synthesis + C11 lowering over the
//! unannotated kernels, and bounded-exhaustive DPOR walks over the
//! litmus corpus.
//!
//! The walks are driven here through the explorer's public pieces —
//! `dpor::explore` over `Scenario::machine_scripted` machines checked by
//! `Explorer::check_machine` and distilled by `RunObs::new`, which is
//! what `Explorer::observe_machine` does — so the benchmark can count
//! the simulated cycles each walk retires. Counterexample shrinking is
//! not part of the timed workload; the traced run calls
//! `Explorer::explore_exhaustive` on every cell to cross-check the walk
//! and to count the shrink runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use asymfence::cpu::insert::FencedProgram;
use asymfence::prelude::*;
use asymfence_analyze::{lower, place, Analysis, Lowering};
use asymfence_bench::{Runner, SiteMask};
use asymfence_common::config::MachineConfig as Config;
use asymfence_explore::{dpor, ExhaustiveOutcome, Explorer, Failure, RunObs};
use asymfence_synth::{SynthResult, Synthesizer};
use asymfence_workloads::sites::SiteBench;
use asymfence_workloads::unannot::InferredKernel;

use crate::digest::{self, Fnv};
use crate::gen::{DporCell, ToolsInput};
use crate::sim::panic_message;
use crate::spans::Spans;

/// Which stage a cell belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// `Synthesizer::synthesize` over one (site bench, design).
    Synth,
    /// `place::analyze` over one kernel.
    Infer,
    /// `Synthesizer::synthesize_inferred` + `lower` over one (kernel,
    /// design).
    Search,
    /// One exhaustive walk over one (scenario, design).
    Dpor,
}

/// One executed cell.
#[derive(Clone, Debug)]
pub struct ToolCell {
    /// Stable label (the digest key).
    pub label: String,
    /// The stage.
    pub stage: Stage,
    /// Host time of the cell.
    pub wall_ns: u64,
    /// Output digest, or why the cell failed.
    pub digest: Result<u64, String>,
}

/// The synthesized winner of one (target, design) search, kept for the
/// oracle re-check and the speedups.
#[derive(Clone, Debug)]
pub struct Winner {
    /// What was searched.
    pub target: Target,
    /// Under which design.
    pub design: FenceDesign,
    /// Number of sites of the mask space.
    pub n_sites: u32,
    /// The winning weak-site mask.
    pub mask: u64,
    /// Its scoring cycles.
    pub cycles: u64,
}

/// A search target.
#[derive(Clone, Debug)]
pub enum Target {
    /// A hand-annotated site bench.
    Hand(SiteBench),
    /// An unannotated kernel under its inferred placement.
    Inferred(InferredKernel, asymfence_common::placement::Placement),
}

impl Target {
    /// Target name.
    pub fn name(&self) -> &'static str {
        match self {
            Target::Hand(b) => b.name(),
            Target::Inferred(k, _) => k.name(),
        }
    }
}

/// Totals of the exhaustive walks.
#[derive(Clone, Debug, Default)]
pub struct DporTotals {
    /// Runs executed.
    pub executed: u64,
    /// Schedules discharged by the reductions.
    pub pruned: u64,
    /// Schedules accounted for.
    pub explored: u64,
    /// Mazurkiewicz classes.
    pub classes: u64,
    /// Merged statistics of every executed run.
    pub stats: MachineStats,
}

/// Everything one pass produced.
#[derive(Clone, Debug, Default)]
pub struct ToolsPass {
    /// Cells in execution order.
    pub cells: Vec<ToolCell>,
    /// Host time of the pass.
    pub wall_ns: u64,
    /// Search counters of the site-bench synthesis.
    pub synth: SearchStats,
    /// Search counters of the inferred-placement synthesis.
    pub search: SearchStats,
    /// Walk totals.
    pub dpor: DporTotals,
    /// Host time of the walk cells.
    pub dpor_ns: u64,
    /// Interpreter steps, critical cycles and sites of the analyses.
    pub analysis: (u64, u64, u64),
    /// Every synthesized winner.
    pub winners: Vec<Winner>,
    /// Every walk's outcome, in cell order (`None` if it panicked).
    pub walks: Vec<Option<ExhaustiveOutcome>>,
}

impl ToolsPass {
    /// Simulator runs of the pass: search runs plus walk runs.
    pub fn runs(&self) -> u64 {
        self.synth.runs + self.search.runs + self.dpor.executed
    }
}

fn span(spans: Option<&Mutex<Spans>>, name: &'static str) {
    if let Some(s) = spans {
        s.lock().expect("span recorder poisoned").enter(name);
    }
}

fn span_end(spans: Option<&Mutex<Spans>>) {
    if let Some(s) = spans {
        s.lock().expect("span recorder poisoned").exit();
    }
}

fn set_cell(spans: Option<&Mutex<Spans>>, cell: usize) {
    if let Some(s) = spans {
        s.lock()
            .expect("span recorder poisoned")
            .set_cell(cell as u32);
    }
}

fn stats_digest(h: &mut Fnv, s: &SearchStats) {
    h.word(s.enumerated)
        .word(s.pruned)
        .word(s.oracle_rejected)
        .word(s.valid)
        .word(s.memo_hits)
        .word(s.runs);
}

fn synth_digest(h: &mut Fnv, r: &SynthResult) {
    h.text(r.name).text(r.design.label()).word(r.n_sites as u64);
    for g in &r.groups {
        h.word(g.len() as u64);
        for &i in g {
            h.word(i as u64);
        }
    }
    match r.best {
        Some(b) => h.word(1).word(b.mask).word(b.cycles),
        None => h.word(0),
    };
    if let Some(p) = r.paper {
        h.word(p.mask)
            .word(p.valid as u64)
            .word(p.cycles.unwrap_or(u64::MAX));
    }
    stats_digest(h, &r.stats);
}

fn analysis_digest(a: &Analysis) -> u64 {
    let mut h = Fnv::new();
    h.text(a.kernel.name());
    for f in &a.placement.fences {
        h.word(f.site as u64).text(&f.label);
    }
    h.word(a.windows.len() as u64)
        .word(a.critical.len() as u64)
        .word(a.cycles)
        .word(a.bounded)
        .word(a.dropped_dead as u64)
        .word(a.steps);
    h.finish()
}

fn lowering_digest(h: &mut Fnv, l: &Lowering) {
    h.word(l.asymmetric as u64);
    for f in &l.fences {
        h.word(f.site as u64).text(&f.label).text(f.lower.label());
    }
}

/// The digest of one walk: its counts and verdict.
pub fn walk_digest(out: &ExhaustiveOutcome) -> u64 {
    let mut h = Fnv::new();
    h.word(out.executed)
        .word(out.pruned)
        .word(out.explored)
        .word(out.classes)
        .word(out.frontier)
        .word(out.complete as u64);
    match &out.violation {
        Some((decisions, failure)) => {
            h.word(1).word(decisions.len() as u64);
            for &d in decisions {
                h.word(d as u64);
            }
            h.text(match failure {
                Failure::Scv { .. } => "scv",
                Failure::Deadlock => "deadlock",
                Failure::CycleLimit => "cycle-limit",
            });
        }
        None => {
            h.word(0);
        }
    }
    h.finish()
}

/// Walks one cell's bounded choice tree with one worker, merging every
/// run's statistics into `census`; with `spans`, each machine build
/// and each observation (run + oracle + distillation) gets a span.
pub fn walk(
    explorer: &Explorer,
    cell: &DporCell,
    input: &ToolsInput,
    spans: Option<&Mutex<Spans>>,
    census: &Mutex<MachineStats>,
) -> ExhaustiveOutcome {
    let line_bytes = Config::default().line_bytes;
    let static_shared = cell.scenario.shared_slot_lines(line_bytes);
    dpor::explore(&input.dpor_cfg, 1, |script| {
        span(spans, "explore.build");
        let mut m = cell.scenario.machine_scripted(
            cell.design,
            script.clone(),
            explorer.cfg.watchdog_cycles,
        );
        span_end(spans);
        span(spans, "explore.observe");
        let failure = explorer.check_machine(&mut m);
        let recording = m.take_schedule_recording().unwrap_or_default();
        let log = m.scv_log().cloned().unwrap_or_default();
        let obs = RunObs::new(
            failure,
            recording,
            &log,
            m.now(),
            line_bytes,
            &static_shared,
        );
        span_end(spans);
        census.lock().expect("census poisoned").merge(&m.stats());
        obs
    })
}

/// Why a walk's verdict is wrong, if it is.
pub fn walk_verdict(cell: &DporCell, out: &ExhaustiveOutcome) -> Result<(), String> {
    if !out.complete {
        return Err(format!(
            "{}: walk did not cover the bounded tree",
            cell.label()
        ));
    }
    match (cell.expect_sc, out.violation.is_none()) {
        (true, false) => Err(format!("{}: expected SC, found a violation", cell.label())),
        (false, true) => Err(format!(
            "{}: expected a violation, walk was clean",
            cell.label()
        )),
        _ => Ok(()),
    }
}

/// Runs the whole workload once, calling `between` after each cell.
/// Every cell is timed and guarded: a panic or a wrong verdict fails
/// that cell and the pass goes on.
pub fn tools_pass(
    input: &ToolsInput,
    spans: Option<&Mutex<Spans>>,
    between: &mut dyn FnMut(),
) -> ToolsPass {
    let start = Instant::now();
    let mut pass = ToolsPass::default();
    let explorer = Explorer::new(input.oracle);
    let mut synth = Synthesizer::new(explorer, Runner::with_jobs(1), input.seed);
    let mut push = |pass: &mut ToolsPass, label, stage, t: Instant, digest| {
        let wall_ns = t.elapsed().as_nanos() as u64;
        between();
        pass.cells.push(ToolCell {
            label,
            stage,
            wall_ns,
            digest,
        });
    };

    for &bench in &input.benches {
        for &design in &input.designs {
            set_cell(spans, pass.cells.len());
            let t = Instant::now();
            span(spans, "synth.synthesize");
            let r = catch_unwind(AssertUnwindSafe(|| synth.synthesize(bench, design, None)));
            span_end(spans);
            let digest = r.map_err(panic_message).and_then(|r| {
                pass.synth.merge(&r.stats);
                let best = r.best.ok_or("no valid assignment")?;
                pass.winners.push(Winner {
                    target: Target::Hand(bench),
                    design,
                    n_sites: r.n_sites,
                    mask: best.mask,
                    cycles: best.cycles,
                });
                let mut h = Fnv::new();
                synth_digest(&mut h, &r);
                Ok(h.finish())
            });
            let label = format!("synth/{}/{}", bench.name(), design.label());
            push(&mut pass, label, Stage::Synth, t, digest);
        }
    }

    for &kernel in &input.kernels {
        set_cell(spans, pass.cells.len());
        let t = Instant::now();
        span(spans, "analyze.infer");
        let a = catch_unwind(|| place::analyze(kernel, input.seed)).map_err(panic_message);
        span_end(spans);
        let label = format!("infer/{}", kernel.name());
        let digest = a.as_ref().map(analysis_digest).map_err(Clone::clone);
        push(&mut pass, label, Stage::Infer, t, digest);
        let Ok(a) = a else { continue };
        pass.analysis.0 += a.steps;
        pass.analysis.1 += a.cycles;
        pass.analysis.2 += a.placement.len() as u64;
        for &design in &input.designs {
            set_cell(spans, pass.cells.len());
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                span(spans, "analyze.search");
                let r = synth.synthesize_inferred(kernel, &a.placement, design, None);
                span_end(spans);
                let best = r.best.ok_or_else(|| "no valid assignment".to_string())?;
                span(spans, "analyze.lower");
                let lowering = lower(&a.placement, &r.groups, best.mask);
                span_end(spans);
                Ok::<_, String>((r, lowering))
            }));
            let digest = r.map_err(panic_message).and_then(|r| {
                let (r, lowering) = r?;
                pass.search.merge(&r.stats);
                if lowering.fences.len() != a.placement.len() {
                    return Err("lowering dropped a site".into());
                }
                let best = r.best.expect("checked above");
                pass.winners.push(Winner {
                    target: Target::Inferred(kernel, a.placement.clone()),
                    design,
                    n_sites: r.n_sites,
                    mask: best.mask,
                    cycles: best.cycles,
                });
                let mut h = Fnv::new();
                synth_digest(&mut h, &r);
                lowering_digest(&mut h, &lowering);
                Ok(h.finish())
            });
            let label = format!("search/{}/{}", kernel.name(), design.label());
            push(&mut pass, label, Stage::Search, t, digest);
        }
    }

    let explorer = Explorer::default().with_jobs(1);
    let census = Mutex::new(MachineStats::default());
    for cell in &input.dpor {
        set_cell(spans, pass.cells.len());
        let t = Instant::now();
        span(spans, "explore.walk");
        let out = catch_unwind(AssertUnwindSafe(|| {
            walk(&explorer, cell, input, spans, &census)
        }));
        span_end(spans);
        pass.dpor_ns += t.elapsed().as_nanos() as u64;
        pass.walks.push(out.as_ref().ok().cloned());
        let digest = out.map_err(panic_message).and_then(|out| {
            pass.dpor.executed += out.executed;
            pass.dpor.pruned += out.pruned;
            pass.dpor.explored += out.explored;
            pass.dpor.classes += out.classes;
            walk_verdict(cell, &out)?;
            Ok(walk_digest(&out))
        });
        push(&mut pass, cell.label(), Stage::Dpor, t, digest);
    }
    pass.dpor.stats = census.into_inner().expect("census poisoned");
    pass.wall_ns = start.elapsed().as_nanos() as u64;
    pass
}

/// Re-checks a winner with an independent oracle sweep: the machine is
/// rebuilt from public calls (config builder, the mask's assignment,
/// the target's programs) and swept over the oracle seeds. `Err` names
/// the failing seed.
pub fn recheck_winner(input: &ToolsInput, w: &Winner) -> Result<(), String> {
    let explorer = Explorer::new(input.oracle).with_jobs(1);
    let (cores, mask) = match &w.target {
        Target::Hand(b) => (b.cores(), SiteMask::hand(w.n_sites, w.mask)),
        Target::Inferred(k, _) => (k.cores(), SiteMask::synthetic(w.n_sites, w.mask)),
    };
    let report = explorer.sweep_builder(|perturb| {
        let mut cfg = MachineConfig::builder()
            .cores(cores)
            .fence_design(w.design)
            .seed(input.seed)
            .record_scv_log(true)
            .watchdog_cycles(explorer.cfg.watchdog_cycles)
            .perturb(perturb)
            .build();
        cfg.fence_assignment = Some(mask.to_assignment());
        let mut m = Machine::new(&cfg);
        match &w.target {
            Target::Hand(b) => {
                for p in b.programs(m.config(), input.seed) {
                    m.add_thread(p);
                }
            }
            Target::Inferred(k, placement) => {
                let line_bytes = m.config().line_bytes;
                for (tid, p) in k.programs(m.config(), input.seed).into_iter().enumerate() {
                    m.add_thread(Box::new(FencedProgram::new(
                        p,
                        tid,
                        placement.spec(),
                        line_bytes,
                        FenceRole::NonCritical,
                    )));
                }
            }
        }
        m
    });
    match report.violation {
        None => Ok(()),
        Some((seed, f)) => Err(format!(
            "{}/{} mask {:#b} fails the oracle at seed {seed}: {f:?}",
            w.target.name(),
            w.design.label(),
            w.mask
        )),
    }
}

/// Geomeans over targets of S+ winner cycles ÷ WS+ and ÷ W+ winner
/// cycles. `None` when a target lacks a winner for one of them.
pub fn speedups(winners: &[Winner]) -> Option<(f64, f64)> {
    let cycles = |name: &str, inferred: bool, d: FenceDesign| {
        winners
            .iter()
            .find(|w| {
                w.target.name() == name
                    && matches!(w.target, Target::Inferred(..)) == inferred
                    && w.design == d
            })
            .map(|w| w.cycles as f64)
    };
    let mut ws = Vec::new();
    let mut wp = Vec::new();
    for w in winners.iter().filter(|w| w.design == FenceDesign::SPlus) {
        let inferred = matches!(w.target, Target::Inferred(..));
        let name = w.target.name();
        ws.push(w.cycles as f64 / cycles(name, inferred, FenceDesign::WsPlus)?);
        wp.push(w.cycles as f64 / cycles(name, inferred, FenceDesign::WPlus)?);
    }
    if ws.is_empty() {
        return None;
    }
    Some((crate::stats::geomean(&ws), crate::stats::geomean(&wp)))
}

/// Digest of a pass's full output (all cell digests in order).
pub fn pass_digest(pass: &ToolsPass) -> u64 {
    let mut h = Fnv::new();
    for c in &pass.cells {
        h.text(&c.label).word(*c.digest.as_ref().unwrap_or(&0));
    }
    h.finish()
}

/// Digest of a merged statistics block (the walk census).
pub fn census_digest(s: &MachineStats) -> u64 {
    let mut h = Fnv::new();
    digest::machine_stats(&mut h, s);
    h.finish()
}
