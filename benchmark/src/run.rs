//! One benchmark run: set-up, the measured passes, the checks, and the
//! metrics.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use asymfence::prelude::*;
use asymfence_bench::{pool, RunSpec, Runner};
use asymfence_common::telemetry::{self, Json};
use asymfence_explore::Explorer;

use crate::calib::Calibrator;
use crate::digest;
use crate::gen::{self, SimCell, ToolsInput, Workload};
use crate::sim::{self, ReplicaCounts};
use crate::spans::Spans;
use crate::stats::{median, percentile, ratio, tail_percentile};
use crate::tools::{self, Stage, ToolsPass};
use asymfence_bench::RunResult;

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;
/// Calibration units timed before each set-up.
const SETUP_CALIBRATION: usize = 8;
/// Cells a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Rewrite the pinned digests from this run instead of checking.
    pub bless: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Cells (and whole-run checks) attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Recorded spans (traced runs).
    pub spans: Option<Json>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Counts attempted and failed checks, comparing cell digests against
/// the first pass (every seed) and the pinned digests (default seed).
#[derive(Debug, Default)]
pub struct Checker {
    pins: Option<BTreeMap<String, u64>>,
    first: BTreeMap<String, u64>,
    /// First-pass `(label, digest)` in cell order (what `--bless` writes).
    pub order: Vec<(String, u64)>,
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Failure messages.
    pub failures: Vec<String>,
}

impl Checker {
    /// Records one check.
    pub fn check(&mut self, label: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            self.failures.push(format!("{label}: {e}"));
        }
    }

    /// Records one cell's digest.
    pub fn cell(&mut self, label: &str, digest: Result<u64, String>) {
        let ok = digest.and_then(|d| {
            match self.first.get(label) {
                Some(&prev) if prev != d => {
                    return Err(format!(
                        "digest {d:016x} differs from first pass {prev:016x}"
                    ))
                }
                Some(_) => {}
                None => {
                    self.first.insert(label.to_string(), d);
                    self.order.push((label.to_string(), d));
                }
            }
            match self.pins.as_ref().map(|p| p.get(label)) {
                None => Ok(()),
                Some(Some(&pin)) if pin == d => Ok(()),
                Some(Some(&pin)) => Err(format!("digest {d:016x}, pinned {pin:016x}")),
                Some(None) => Err("no pinned digest".into()),
            }
        });
        self.check(label, ok);
    }
}

/// The pinned digests for a run: only the default seed has them, and a
/// missing or unreadable pin file there is an error.
fn load_pins(args: &Args) -> Result<Option<BTreeMap<String, u64>>, String> {
    if args.bless || args.seed != gen::DEFAULT_SEED {
        return Ok(None);
    }
    let path = digest::pin_path(args.workload.name());
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read pinned digests {}: {e}", path.display()))?;
    digest::parse_pins(&text).map(Some)
}

/// Built inputs of one workload.
enum Inputs {
    Sim(Vec<SimCell>),
    Tools(Box<ToolsInput>),
}

/// Builds the inputs and warms up: one untimed run of each hardware
/// shape's first cell through the pool (the first cell's shape last, so
/// it stays pooled),
/// and for `fence-tools` also each corpus scenario's natural schedule.
fn setup(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::Stm | Workload::Cilk => {
            let cells = if workload == Workload::Stm {
                gen::stm_cells(seed)
            } else {
                gen::cilk_cells(seed)
            };
            let mut warm: Vec<RunSpec> = Vec::new();
            for c in &cells {
                if warm.iter().all(|w| w.cores != c.spec.cores) {
                    warm.push(c.spec);
                }
            }
            for spec in warm.iter().rev() {
                std::hint::black_box(spec.execute());
            }
            Inputs::Sim(cells)
        }
        Workload::FenceTools => {
            let input = gen::tools_input(seed);
            for &bench in input.benches.iter().rev() {
                std::hint::black_box(
                    RunSpec::sites(bench, FenceDesign::SPlus, input.seed).execute(),
                );
            }
            let explorer = Explorer::default();
            for cell in &input.dpor {
                let script = input.dpor_cfg.script(Vec::new());
                let mut m = cell.scenario.machine_scripted(
                    cell.design,
                    script,
                    explorer.cfg.watchdog_cycles,
                );
                std::hint::black_box(explorer.check_machine(&mut m));
            }
            Inputs::Tools(Box::new(input))
        }
    }
}

/// Runs the benchmark and returns its report.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    let mut cal = Calibrator::new();
    for _ in 0..SETUP_REPEATS {
        for _ in 0..SETUP_CALIBRATION {
            cal.sample();
        }
        let t = Instant::now();
        inputs = Some(setup(args.workload, args.seed));
        setup_s.push(t.elapsed().as_secs_f64() * cal.take_scale());
    }
    let inputs = inputs.expect("at least one set-up");
    let mut checker = Checker::default();
    match load_pins(args) {
        Ok(pins) => checker.pins = pins,
        Err(e) => checker.check("pinned-digests", Err(e)),
    }
    let mut v = Values::new();
    let (c, r) = (&mut checker, &mut report);
    match (&inputs, args.trace) {
        (Inputs::Sim(cells), false) => sim_e2e(args, cells, c, &mut v, r),
        (Inputs::Sim(cells), true) => sim_traced(cells, c, &mut v, r),
        (Inputs::Tools(input), false) => tools_e2e(args, input, c, &mut v, r),
        (Inputs::Tools(input), true) => tools_traced(input, c, &mut v, r),
    }
    if args.trace {
        emit(&mut report, crate::PER_LAYER, &v);
    } else {
        v.insert("setup_s", median(&setup_s));
        emit(&mut report, crate::END_TO_END, &v);
    }
    if args.bless {
        let text = digest::render_pins(args.workload.name(), args.seed, &checker.order);
        let path = digest::pin_path(args.workload.name());
        match std::fs::write(&path, text) {
            Ok(()) => report.notes.push(format!(
                "# pinned {} digests to {}",
                checker.order.len(),
                path.display()
            )),
            Err(e) => checker.check(
                "bless",
                Err(format!("cannot write {}: {e}", path.display())),
            ),
        }
    }
    report.attempted = checker.attempted;
    report.failed = checker.failed;
    report.notes.push(format!(
        "# fail_frac = {} ({} failed / {} attempted)",
        ratio(checker.failed as f64, checker.attempted as f64),
        checker.failed,
        checker.attempted
    ));
    for f in checker.failures.iter().take(20) {
        report.notes.push(format!("FAIL {f}"));
    }
    report
}

/// Cell times of every pass. The timing metrics come from per-cell
/// medians across passes, so a transient stall on the shared host moves
/// one sample of one cell rather than a whole pass.
#[derive(Default)]
struct PassTimes {
    /// `cell_ns[pass][cell]`, host time.
    cell_ns: Vec<Vec<u64>>,
    /// `scale[pass][cell]`, the factor scaling host time to the
    /// calibration's reference speed.
    scale: Vec<Vec<f64>>,
    /// Cells whose time is simulator time (for the cycle rates).
    sim_cells: Vec<bool>,
    /// Simulator runs, simulated cycles and retired instructions of one
    /// pass (identical every pass: the digests check it).
    runs: u64,
    cycles: u64,
    instrs: u64,
}

impl PassTimes {
    /// Records one pass; the work counts are taken from the first.
    fn record(
        &mut self,
        scale: Vec<f64>,
        cell_ns: Vec<u64>,
        sim_cells: Vec<bool>,
        runs: u64,
        cycles: u64,
        instrs: u64,
    ) {
        if self.cell_ns.is_empty() {
            (self.sim_cells, self.runs, self.cycles, self.instrs) =
                (sim_cells, runs, cycles, instrs);
        }
        self.cell_ns.push(cell_ns);
        self.scale.push(scale);
    }

    /// Host time of the slowest pass so far, in seconds.
    fn slowest_pass_s(&self) -> f64 {
        self.cell_ns
            .iter()
            .map(|p| p.iter().sum::<u64>() as f64 / 1e9)
            .fold(0.0, f64::max)
    }

    /// Per-cell median time in ms, at the reference speed when `scaled`
    /// and in host time otherwise.
    fn medians_ms(&self, scaled: bool) -> Vec<f64> {
        let cells = self.cell_ns.first().map_or(0, Vec::len);
        (0..cells)
            .map(|c| {
                let xs: Vec<f64> = self
                    .cell_ns
                    .iter()
                    .zip(&self.scale)
                    .map(|(p, k)| p[c] as f64 / 1e6 * if scaled { k[c] } else { 1.0 })
                    .collect();
                median(&xs)
            })
            .collect()
    }

    /// Fills the timing metrics (everything but set-up, RSS and the
    /// simulated speedups).
    fn emit(&self, v: &mut Values, report: &mut Report) {
        let raw = self.medians_ms(false).iter().sum::<f64>() / 1e3;
        let med = self.medians_ms(true);
        let wall = med.iter().sum::<f64>() / 1e3;
        let sim: f64 = med
            .iter()
            .zip(&self.sim_cells)
            .filter(|(_, &s)| s)
            .map(|(m, _)| m)
            .sum::<f64>()
            / 1e3;
        let tail_p = tail_percentile(med.len(), TAIL_BEYOND).unwrap_or(50);
        v.insert("wall_s", wall);
        v.insert("sim_mcycles_per_s", ratio(self.cycles as f64, sim) / 1e6);
        v.insert("sim_minstrs_per_s", ratio(self.instrs as f64, sim) / 1e6);
        v.insert("runs_per_s", ratio(self.runs as f64, wall));
        v.insert("cell_ms_p50", percentile(&med, 50));
        v.insert("cell_ms_tail", percentile(&med, tail_p));
        report.notes.push(format!(
            "# timings use each cell's median over {} passes at the calibration's reference \
             speed (median host speed factor per pass {:.3?}); wall_s sums them ({raw:.4} s in \
             host time); cell_ms_tail is p{tail_p} of {} cells",
            self.cell_ns.len(),
            self.scale.iter().map(|k| median(k)).collect::<Vec<_>>(),
            med.len()
        ));
    }
}

/// Whether another pass fits: the budget minus the time used still
/// covers the slowest pass so far. The first pass always runs.
fn another_pass(start: Instant, seconds: f64, times: &PassTimes) -> bool {
    times.cell_ns.is_empty() || start.elapsed().as_secs_f64() + times.slowest_pass_s() <= seconds
}

/// Fills the timing metrics, peak RSS and the simulated speedups, with
/// the paper's reference beside the speedups. Missing speedups (a
/// compared cell failed) fail the `speedups` check and read 0.
fn finish_e2e(
    v: &mut Values,
    report: &mut Report,
    checker: &mut Checker,
    times: &PassTimes,
    speedups: Option<(f64, f64)>,
) {
    checker.check(
        "speedups",
        speedups
            .map(|_| ())
            .ok_or_else(|| "a compared cell failed".to_string()),
    );
    let (ws, w) = speedups.unwrap_or((0.0, 0.0));
    times.emit(v, report);
    let rss = telemetry::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    v.insert("peak_rss_mb", rss);
    v.insert("ws_speedup", ws);
    v.insert("w_speedup", w);
    report.notes.push(format!(
        "# simulated ws_speedup {ws:.4}x, w_speedup {w:.4}x; the paper's own simulator reports \
         WS+ +13% and W+ +21% over S+ (a simulated reference, not a hardware validation)"
    ));
}

fn sim_e2e(
    args: &Args,
    cells: &[SimCell],
    checker: &mut Checker,
    v: &mut Values,
    report: &mut Report,
) {
    let runner = Runner::with_jobs(1);
    let mut times = PassTimes::default();
    let mut speedups = None;
    let mut cal = Calibrator::new();
    let start = Instant::now();
    while another_pass(start, args.seconds, &times) {
        let runs = sim::untraced_pass(&runner, cells, &mut || cal.sample());
        let (mut cycles, mut instrs) = (0, 0);
        for (c, r) in cells.iter().zip(&runs) {
            checker.cell(
                &c.label(),
                r.result
                    .as_ref()
                    .map(digest::run_result)
                    .map_err(Clone::clone),
            );
            if let Ok(r) = &r.result {
                cycles += r.cycles;
                instrs += r.stats.instrs_retired();
            }
        }
        let cell_ns = runs.iter().map(|r| r.wall_ns).collect();
        times.record(
            cal.take_scales(),
            cell_ns,
            vec![true; cells.len()],
            cells.len() as u64,
            cycles,
            instrs,
        );
        if speedups.is_none() {
            speedups = Some(sim::speedups(cells, &runs));
        }
    }
    finish_e2e(v, report, checker, &times, speedups.flatten());
}

fn tools_e2e(
    args: &Args,
    input: &ToolsInput,
    checker: &mut Checker,
    v: &mut Values,
    report: &mut Report,
) {
    let mut times = PassTimes::default();
    let mut first: Option<ToolsPass> = None;
    let mut cal = Calibrator::new();
    let start = Instant::now();
    while another_pass(start, args.seconds, &times) {
        let pass = tools::tools_pass(input, None, &mut || cal.sample());
        tools_checks(&pass, checker);
        times.record(
            cal.take_scales(),
            pass.cells.iter().map(|c| c.wall_ns).collect(),
            pass.cells.iter().map(|c| c.stage == Stage::Dpor).collect(),
            pass.runs(),
            pass.dpor.stats.cycles,
            pass.dpor.stats.instrs_retired(),
        );
        first.get_or_insert(pass);
    }
    let first = first.expect("one pass");
    for w in &first.winners {
        let label = format!("oracle/{}/{}", w.target.name(), w.design.label());
        checker.check(&label, tools::recheck_winner(input, w));
    }
    finish_e2e(v, report, checker, &times, tools::speedups(&first.winners));
}

fn tools_checks(pass: &ToolsPass, checker: &mut Checker) {
    for c in &pass.cells {
        checker.cell(&c.label, c.digest.clone());
    }
    checker.cell("dpor/census", Ok(tools::census_digest(&pass.dpor.stats)));
}

/// Appends the metrics of `table` in its order, from named values;
/// a name without a value (a layer the workload does not exercise)
/// reads 0.
pub fn emit(report: &mut Report, table: &[(&'static str, &'static str)], values: &Values) {
    for &(name, unit) in table {
        report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Fills the `cpu`, `coherence` and `noc` counts from merged stats.
fn layer_counts(v: &mut Values, s: &MachineStats) {
    let a = s.aggregate();
    let f = |x: u64| x as f64;
    let active = f(a.busy_cycles + a.fence_stall_cycles + a.other_stall_cycles);
    v.insert("cpu.instrs", f(a.instrs_retired));
    v.insert("cpu.loads", f(a.loads));
    v.insert("cpu.stores", f(a.stores));
    v.insert("cpu.rmws", f(a.rmws));
    v.insert("cpu.sf", f(a.sf_count));
    v.insert("cpu.wf", f(a.wf_count));
    v.insert("cpu.load_squashes", f(a.load_squashes));
    v.insert("cpu.early_retired_loads", f(a.early_retired_loads));
    v.insert("cpu.recoveries", f(a.recoveries));
    v.insert("cpu.busy_frac", ratio(f(a.busy_cycles), active));
    v.insert(
        "cpu.fence_stall_frac",
        ratio(f(a.fence_stall_cycles), active),
    );
    v.insert("coherence.l1_hits", f(a.l1_hits));
    v.insert("coherence.l1_misses", f(a.l1_misses));
    v.insert(
        "coherence.l1_miss_rate",
        ratio(f(a.l1_misses), f(a.l1_hits + a.l1_misses)),
    );
    v.insert("coherence.writes_bounced", f(a.writes_bounced));
    v.insert("coherence.bounce_retries", f(a.bounce_retries));
    v.insert("coherence.order_ops", f(a.order_ops));
    v.insert("coherence.cond_order_failures", f(a.cond_order_failures));
    v.insert(
        "coherence.bs_lines_per_wf",
        ratio(f(a.bs_lines_sum), f(a.wf_count)),
    );
    v.insert("coherence.bs_overflows", f(a.bs_overflows));
    v.insert("coherence.wee_demotions", f(a.wee_demotions));
    v.insert("coherence.remote_ps_stalls", f(a.remote_ps_stalls));
    v.insert("noc.messages", f(s.traffic.messages));
    v.insert("noc.bytes", f(s.traffic.base_bytes + s.traffic.retry_bytes));
    v.insert("noc.retry_bytes", f(s.traffic.retry_bytes));
    v.insert(
        "noc.msgs_per_kcycle",
        ratio(f(s.traffic.messages), f(s.cycles) / 1e3),
    );
}

fn pool_delta(before: pool::PoolStats, v: &mut Values) {
    let after = pool::stats();
    v.insert("bench.pool.builds", (after.builds - before.builds) as f64);
    v.insert("bench.pool.reuses", (after.reuses - before.reuses) as f64);
}

fn pct_over(slow: u64, base: u64) -> f64 {
    (ratio(slow as f64, base as f64) - 1.0) * 100.0
}

fn sim_traced(cells: &[SimCell], checker: &mut Checker, v: &mut Values, report: &mut Report) {
    let runner = Runner::with_jobs(1);
    let mut spans = Spans::new();
    let mut slot = None;
    let mut counts = ReplicaCounts::default();
    let mut merged = MachineStats::default();
    let (mut commits, mut aborts) = (0u64, 0u64);
    let (mut exec_ns, mut runner_ns, mut fenced_ns, mut replica_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut builds, mut reuses) = (0u64, 0u64);

    // Each cell runs four ways back to back, so host-speed drift over
    // the run affects every variant alike: plain `execute` (the
    // reference, outputs checked), one-spec `Runner::run`,
    // `execute_traced`, and the replica with spans.
    for (i, c) in cells.iter().enumerate() {
        let label = c.label();
        let before = pool::stats();
        let (ns, reference) = sim::timed(|| c.spec.execute());
        let after = pool::stats();
        builds += after.builds - before.builds;
        reuses += after.reuses - before.reuses;
        exec_ns += ns;
        checker.cell(
            &label,
            reference
                .as_ref()
                .map(digest::run_result)
                .map_err(Clone::clone),
        );
        let Ok(reference) = reference else { continue };
        let same = |r: Result<RunResult, String>, what: &str| match r {
            Ok(r) if sim::same_result(&r, &reference) => Ok(()),
            Ok(_) => Err(format!("{what} result differs from RunSpec::execute")),
            Err(e) => Err(e),
        };

        let (ns, r) = sim::timed(|| runner.run(std::slice::from_ref(&c.spec)).remove(0));
        runner_ns += ns;
        checker.check(&format!("runner/{label}"), same(r, "Runner::run"));

        let (ns, r) = sim::timed(|| c.spec.execute_traced().0);
        fenced_ns += ns;
        checker.check(&format!("fence-trace/{label}"), same(r, "execute_traced"));

        spans.set_cell(i as u32);
        let (ns, r) = sim::timed(|| sim::replica_cell(&c.spec, &mut slot, &mut spans, &mut counts));
        replica_ns += ns;
        if let Ok(r) = &r {
            merged.merge(&r.stats);
            commits += r.commits;
            aborts += r.aborts;
        }
        checker.check(&format!("replica/{label}"), same(r, "replica"));
    }

    let n = cells.len() as f64;
    let run = spans.total("core.run");
    let mean = |name: &str, scale: f64| {
        let t = spans.total(name);
        ratio(t.total_ns as f64, t.count as f64) / scale
    };
    v.insert(
        "bench.runner.overhead_ms",
        (runner_ns as f64 - exec_ns as f64) / 1e6,
    );
    v.insert("bench.pool.builds", builds as f64);
    v.insert("bench.pool.reuses", reuses as f64);
    v.insert(
        "bench.cell.setup_ms",
        spans.total("bench.cell.setup").total_ns as f64 / n / 1e6,
    );
    v.insert(
        "bench.cell.harvest_ms",
        spans.total("bench.cell.harvest").total_ns as f64 / n / 1e6,
    );
    v.insert("core.run_s", run.total_ns as f64 / 1e9);
    v.insert(
        "core.ns_per_cycle",
        ratio(run.total_ns as f64, merged.cycles as f64),
    );
    v.insert(
        "core.ns_per_instr",
        ratio(run.total_ns as f64, merged.instrs_retired() as f64),
    );
    v.insert(
        "core.ns_per_msg",
        ratio(run.total_ns as f64, merged.traffic.messages as f64),
    );
    v.insert("core.new_us", mean("core.new", 1e3));
    v.insert("workloads.install_ms", mean("workloads.install", 1e6));
    v.insert("workloads.commits", commits as f64);
    v.insert("workloads.aborts", aborts as f64);
    v.insert(
        "workloads.abort_ratio",
        ratio(aborts as f64, (commits + aborts) as f64),
    );
    v.insert("trace.fence_overhead_pct", pct_over(fenced_ns, exec_ns));
    v.insert("trace.span_overhead_pct", pct_over(replica_ns, exec_ns));
    layer_counts(v, &merged);
    report.notes.push(format!(
        "# replica: {} builds, {} in-place resets; pool under RunSpec::execute: {builds} builds, \
         {reuses} reuses",
        counts.builds, counts.reuses
    ));
    report.spans = Some(spans.to_json());
}

fn tools_traced(input: &ToolsInput, checker: &mut Checker, v: &mut Values, report: &mut Report) {
    let before = pool::stats();
    let reference = tools::tools_pass(input, None, &mut || {});
    pool_delta(before, v);
    tools_checks(&reference, checker);

    let spans = Mutex::new(Spans::new());
    let traced = tools::tools_pass(input, Some(&spans), &mut || {});
    let spans = spans.into_inner().expect("span recorder poisoned");
    for (a, b) in reference.cells.iter().zip(&traced.cells) {
        let same = if a.digest == b.digest {
            Ok(())
        } else {
            Err("traced pass output differs".into())
        };
        checker.check(&format!("traced/{}", a.label), same);
    }
    v.insert(
        "trace.span_overhead_pct",
        pct_over(traced.wall_ns, reference.wall_ns),
    );

    // Cross-check every walk against the explorer's own entry point,
    // which also shrinks the convicting cells.
    let explorer = Explorer::default().with_jobs(1);
    let mut shrink_runs = 0;
    for (cell, walk) in input.dpor.iter().zip(&traced.walks) {
        let rep = explorer.explore_exhaustive(&cell.scenario, cell.design, &input.dpor_cfg);
        shrink_runs += rep.runs - rep.executed;
        let same = match walk {
            Some(w)
                if (
                    w.executed,
                    w.pruned,
                    w.explored,
                    w.classes,
                    w.complete,
                    w.violation.is_some(),
                ) == (
                    rep.executed,
                    rep.pruned,
                    rep.explored,
                    rep.classes,
                    rep.complete,
                    rep.violation.is_some(),
                ) =>
            {
                Ok(())
            }
            Some(_) => Err("walk differs from Explorer::explore_exhaustive".into()),
            None => Err("walk panicked".into()),
        };
        checker.check(&format!("replica/{}", cell.label()), same);
    }

    let d = &traced.dpor;
    let build = spans.total("explore.build");
    let observe = spans.total("explore.observe");
    v.insert("explore.dpor.executed", d.executed as f64);
    v.insert("explore.dpor.pruned", d.pruned as f64);
    v.insert("explore.dpor.classes", d.classes as f64);
    v.insert("explore.dpor.shrink_runs", shrink_runs as f64);
    v.insert(
        "explore.dpor.prune_ratio",
        ratio(d.pruned as f64, d.explored as f64),
    );
    v.insert(
        "explore.dpor.us_per_run",
        ratio(traced.dpor_ns as f64, d.executed as f64) / 1e3,
    );
    v.insert(
        "explore.build_us",
        ratio(build.total_ns as f64, build.count as f64) / 1e3,
    );
    v.insert(
        "explore.observe_us",
        ratio(observe.total_ns as f64, observe.count as f64) / 1e3,
    );
    v.insert("core.new_us", v["explore.build_us"]);
    v.insert("core.run_s", observe.total_ns as f64 / 1e9);
    v.insert(
        "core.ns_per_cycle",
        ratio(observe.total_ns as f64, d.stats.cycles as f64),
    );
    v.insert(
        "core.ns_per_instr",
        ratio(observe.total_ns as f64, d.stats.instrs_retired() as f64),
    );
    v.insert(
        "core.ns_per_msg",
        ratio(observe.total_ns as f64, d.stats.traffic.messages as f64),
    );
    layer_counts(v, &d.stats);

    let s = &traced.synth;
    let slowest = traced
        .cells
        .iter()
        .filter(|c| c.stage == Stage::Synth)
        .map(|c| c.wall_ns)
        .max()
        .unwrap_or(0);
    v.insert(
        "synth.search_s",
        spans.total("synth.synthesize").total_ns as f64 / 1e9,
    );
    v.insert("synth.enumerated", s.enumerated as f64);
    v.insert("synth.pruned", s.pruned as f64);
    v.insert("synth.oracle_rejected", s.oracle_rejected as f64);
    v.insert("synth.valid", s.valid as f64);
    v.insert("synth.memo_hits", s.memo_hits as f64);
    v.insert("synth.runs", s.runs as f64);
    v.insert(
        "synth.valid_ratio",
        ratio(s.valid as f64, s.enumerated as f64),
    );
    v.insert("synth.slowest_cell_s", slowest as f64 / 1e9);

    let infer = spans.total("analyze.infer");
    let lower = spans.total("analyze.lower");
    v.insert(
        "analyze.infer_ms",
        ratio(infer.total_ns as f64, infer.count as f64) / 1e6,
    );
    v.insert(
        "analyze.search_s",
        spans.total("analyze.search").total_ns as f64 / 1e9,
    );
    v.insert(
        "analyze.lower_us",
        ratio(lower.total_ns as f64, lower.count as f64) / 1e3,
    );
    v.insert("analyze.steps", traced.analysis.0 as f64);
    v.insert("analyze.critical_cycles", traced.analysis.1 as f64);
    v.insert("analyze.sites", traced.analysis.2 as f64);
    report.spans = Some(spans.to_json());
}
