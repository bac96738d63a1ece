//! Lock-step differential test of the event-driven kernel.
//!
//! `Machine::run` skips the ticks of cores whose next tick is a no-op or
//! pure compute-burst retirement, accounts those cycles in bulk, jumps
//! `now` over stretches where nothing acts, and watches for deadlock
//! through a per-step progress flag. This file rebuilds the kernel the
//! slow way from public pieces — every core ticks every cycle, and the
//! watchdog sums every core's progress marker each step — and checks
//! that random programs reach the same outcome, the same merged
//! statistics and the same registers under both.
//!
//! Runs on the in-repo property harness (`asymfence_common::prop`):
//! failing case seeds persist to `tests/regressions/kernel_lockstep.seeds`
//! and replay before fresh cases. `ASF_PROP_CASES` / `ASF_PROP_SEED`
//! override the budget and base seed.

use std::sync::Arc;

use asymfence_common::prop::{check, Config, Gen};
use asymfence_suite::asymfence::coherence::MemSystem;
use asymfence_suite::asymfence::cpu::Core;
use asymfence_suite::prelude::*;

fn prop_cfg() -> Config {
    Config::from_env(256).regressions("tests/regressions/kernel_lockstep.seeds")
}

/// One generated run: machine shape, timing knobs and per-thread programs.
#[derive(Clone, Debug)]
struct Case {
    design: FenceDesign,
    issue_width: usize,
    rob_entries: usize,
    wb_merge_width: usize,
    /// Cores beyond the threads, left without a program.
    idle_cores: usize,
    perturb: Perturbation,
    watchdog: u64,
    limit: u64,
    threads: Vec<Vec<Instr>>,
}

impl Case {
    fn config(&self) -> MachineConfig {
        let (width, rob) = (self.issue_width, self.rob_entries);
        MachineConfig::builder()
            .cores(self.threads.len() + self.idle_cores)
            .fence_design(self.design)
            .wb_merge_width(self.wb_merge_width)
            .watchdog_cycles(self.watchdog)
            .perturb(self.perturb)
            .tweak(|c| {
                c.issue_width = width;
                c.rob_entries = rob;
            })
            .build()
    }

    fn programs(&self) -> (Vec<Box<dyn ThreadProgram>>, Vec<Registers>) {
        self.threads
            .iter()
            .map(|t| {
                let (p, regs) = ScriptProgram::new(t.clone());
                (Box::new(p) as Box<dyn ThreadProgram>, regs)
            })
            .unzip()
    }
}

/// Byte addresses over four lines of one directory bank (several words
/// each, so false sharing occurs) plus two lines homed on other banks.
fn gen_addr(rng: &mut SimRng) -> Addr {
    const LINES: [u64; 6] = [0, 1, 2, 3, 4096, 8193];
    let line = LINES[rng.below(LINES.len() as u64) as usize];
    Addr::new(line * 32 + rng.below(4) * 8)
}

fn gen_instr(rng: &mut SimRng, thread: u64, index: u64, next_tag: &mut u64) -> Instr {
    let mut tag = || {
        *next_tag += 1;
        *next_tag
    };
    let value = (thread + 1) * 1000 + index;
    match rng.weighted(&[14, 10, 18, 6, 6, 6, 22]) {
        0 => Instr::Load {
            addr: gen_addr(rng),
            tag: Some(tag()),
        },
        1 => Instr::Load {
            addr: gen_addr(rng),
            tag: None,
        },
        2 => Instr::Store {
            addr: gen_addr(rng),
            value,
        },
        3 => Instr::Rmw {
            addr: gen_addr(rng),
            op: match rng.below(3) {
                0 => RmwKind::Swap(value),
                1 => RmwKind::Add(1),
                _ => RmwKind::Cas {
                    expect: 0,
                    new: value,
                },
            },
            tag: tag(),
        },
        4 => Instr::fence(FenceRole::Critical),
        5 => Instr::fence(FenceRole::NonCritical),
        _ => Instr::Compute {
            cycles: if rng.chance(0.5) {
                rng.range(1, 16)
            } else {
                rng.range(1, 5000)
            },
        },
    }
}

struct CaseGen;

impl Gen for CaseGen {
    type Value = Case;

    fn sample(&self, rng: &mut SimRng) -> Case {
        const DESIGNS: [FenceDesign; 5] = [
            FenceDesign::SPlus,
            FenceDesign::WsPlus,
            FenceDesign::SwPlus,
            FenceDesign::WPlus,
            FenceDesign::Wee,
        ];
        let design = DESIGNS[rng.below(5) as usize];
        let issue_width = [1, 2, 4][rng.below(3) as usize];
        let rob_entries = [2, 6, 140][rng.below(3) as usize];
        let wb_merge_width = 1 + rng.below(2) as usize;
        let idle_cores = rng.below(2) as usize;
        let perturb = if rng.chance(0.5) {
            Perturbation {
                seed: rng.next_u64(),
                noc_jitter: rng.range(0, 12),
                wb_stall: rng.range(0, 24),
                inval_delay: rng.range(0, 12),
            }
        } else {
            Perturbation::default()
        };
        let watchdog = [40, 150, 600, 5_000, 200_000][rng.below(5) as usize];
        // Small limits cut most runs mid-burst; large ones let them end.
        let limit = if rng.chance(0.5) {
            rng.range(1, 3_000)
        } else {
            rng.range(3_000, 40_000)
        };
        let threads = (0..rng.range(2, 4))
            .map(|t| {
                let mut next_tag = 0;
                (0..rng.range(1, 12))
                    .map(|i| gen_instr(rng, t, i, &mut next_tag))
                    .collect()
            })
            .collect();
        Case {
            design,
            issue_width,
            rob_entries,
            wb_merge_width,
            idle_cores,
            perturb,
            watchdog,
            limit,
            threads,
        }
    }

    fn shrink(&self, c: &Case) -> Vec<Case> {
        let mut out = Vec::new();
        if c.perturb.is_active() {
            out.push(Case {
                perturb: Perturbation::default(),
                ..c.clone()
            });
        }
        if c.idle_cores > 0 {
            out.push(Case {
                idle_cores: 0,
                ..c.clone()
            });
        }
        for (t, thread) in c.threads.iter().enumerate() {
            if c.threads.len() > 2 {
                let mut smaller = c.clone();
                smaller.threads.remove(t);
                out.push(smaller);
            }
            for (i, instr) in thread.iter().enumerate() {
                if thread.len() > 1 {
                    let mut smaller = c.clone();
                    smaller.threads[t].remove(i);
                    out.push(smaller);
                }
                if let Instr::Compute { cycles } = *instr {
                    if cycles > 1 {
                        let mut smaller = c.clone();
                        smaller.threads[t][i] = Instr::Compute { cycles: cycles / 2 };
                        out.push(smaller);
                    }
                }
            }
        }
        out
    }
}

/// The reference kernel: every core ticks every cycle, and the watchdog
/// compares the sum of all progress markers with the previous step's.
/// Returns what `Machine::run` followed by `Machine::stats` would.
fn lockstep_run(
    cfg: &MachineConfig,
    programs: Vec<Box<dyn ThreadProgram>>,
    max_cycles: u64,
) -> (RunOutcome, MachineStats) {
    let cfg = Arc::new(cfg.clone());
    let mut mem = MemSystem::with_shared(Arc::clone(&cfg));
    let mut cores: Vec<Core> = (0..cfg.num_cores)
        .map(|i| {
            let idle = Box::new(ScriptProgram::new(Vec::new()).0);
            Core::with_shared(CoreId(i), Arc::clone(&cfg), idle)
        })
        .collect();
    for (core, program) in cores.iter_mut().zip(programs) {
        core.set_program(program);
    }
    let finished =
        |cores: &[Core], mem: &MemSystem| cores.iter().all(Core::is_done) && mem.is_idle();
    let (mut now, mut last_progress_cycle, mut last_progress_value) = (0, 0, 0);
    let mut deadlocked = false;
    let outcome = loop {
        if finished(&cores, &mem) {
            break RunOutcome::Finished;
        }
        if deadlocked {
            break RunOutcome::Deadlocked;
        }
        if now == max_cycles {
            break RunOutcome::CycleLimit;
        }
        for core in &mut cores {
            core.tick(now, &mut mem, None);
        }
        mem.tick(now);
        let progress: u64 = cores.iter().map(Core::progress_marker).sum();
        if progress != last_progress_value {
            last_progress_value = progress;
            last_progress_cycle = now;
        } else if !finished(&cores, &mem) && now - last_progress_cycle > cfg.watchdog_cycles {
            deadlocked = true;
        }
        now += 1;
    };
    let stats = cores
        .iter()
        .enumerate()
        .map(|(i, core)| {
            let mut s = *core.stats();
            let mc = mem.counters(CoreId(i));
            s.l1_hits = mc.l1_hits;
            s.l1_misses = mc.l1_misses;
            s.writes_bounced = mc.writes_bounced;
            s.bounce_retries = mc.bounce_retries;
            s.bs_peak = mem.bs_peak(CoreId(i)) as u64;
            for b in mem.each_bank_counters() {
                s.order_ops += b.orders[i];
                s.cond_order_failures += b.co_failures[i];
                s.cond_order_successes += b.co_successes[i];
            }
            s
        })
        .collect();
    let stats = MachineStats {
        cycles: now,
        cores: stats,
        traffic: *mem.traffic(),
        deadlocked,
    };
    (outcome, stats)
}

fn sorted(regs: &[Registers]) -> Vec<Vec<(u64, u64)>> {
    regs.iter()
        .map(|r| {
            let mut v: Vec<(u64, u64)> = r.borrow().iter().map(|(&k, &v)| (k, v)).collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// Runs `case` under both kernels; returns the event-driven outcome.
fn differential(case: &Case) -> Result<RunOutcome, String> {
    let cfg = case.config();
    let (programs, ref_regs) = case.programs();
    let (ref_outcome, ref_stats) = lockstep_run(&cfg, programs, case.limit);

    let (programs, regs) = case.programs();
    let mut m = Machine::new(&cfg);
    for p in programs {
        m.add_thread(p);
    }
    let outcome = m.run(case.limit);
    let stats = m.stats();

    if outcome != ref_outcome {
        return Err(format!("outcome {outcome:?}, lock-step {ref_outcome:?}"));
    }
    if stats != ref_stats {
        return Err(format!(
            "stats differ:\n  machine   {stats:?}\n  lock-step {ref_stats:?}"
        ));
    }
    let (got, want) = (sorted(&regs), sorted(&ref_regs));
    if got != want {
        return Err(format!("registers {got:?}, lock-step {want:?}"));
    }
    Ok(outcome)
}

#[test]
fn event_driven_kernel_matches_lockstep() {
    check(
        "event_driven_kernel_matches_lockstep",
        &prop_cfg(),
        &CaseGen,
        |c| differential(c).map(|_| ()),
    );
}

/// A two-core machine with the default core shape, no perturbation and
/// a 5 000-cycle watchdog, running `threads` for up to `limit` cycles.
fn plain(design: FenceDesign, limit: u64, threads: Vec<Vec<Instr>>) -> Case {
    Case {
        design,
        issue_width: 4,
        rob_entries: 140,
        wb_merge_width: 1,
        idle_cores: 2 - threads.len(),
        perturb: Perturbation::default(),
        watchdog: 5_000,
        limit,
        threads,
    }
}

/// A burst 50 times longer than the watchdog horizon is progress, not
/// deadlock, even though no tick of it executes between its first and
/// last cycle.
#[test]
fn long_burst_outlives_a_short_watchdog() {
    let burst = vec![Instr::Compute { cycles: 1_000_000 }];
    let case = plain(FenceDesign::SPlus, 1_000_000, vec![burst]);
    assert_eq!(differential(&case), Ok(RunOutcome::Finished));
}

/// Cutting the same burst at a cycle limit harvests the units it has
/// retired so far, exactly.
#[test]
fn cycle_limit_mid_burst_harvests_exact_stats() {
    let burst = vec![Instr::Compute { cycles: 1_000_000 }];
    let other = vec![
        Instr::Store {
            addr: Addr::new(0x40),
            value: 1,
        },
        Instr::Compute { cycles: 777 },
    ];
    let case = plain(FenceDesign::WsPlus, 12_345, vec![burst, other]);
    assert_eq!(differential(&case), Ok(RunOutcome::CycleLimit));
}
