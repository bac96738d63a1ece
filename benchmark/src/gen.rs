//! Input generation: every workload's cells, built from the seed.
//!
//! The seed only chooses per-cell input seeds (machine perturbation
//! and workload generators); the *shape* of a workload — which
//! applications, designs, core counts and stages run, in which order —
//! is fixed, so two seeds do the same kind and amount of work.

use asymfence::prelude::FenceDesign;
use asymfence_bench::{RunSpec, DESIGNS};
use asymfence_explore::{DporConfig, ExploreConfig, Explorer, Scenario, ALL_DESIGNS};
use asymfence_synth::report::SYNTH_DESIGNS;
use asymfence_workloads::cilk::CilkApp;
use asymfence_workloads::sites::SiteBench;
use asymfence_workloads::stamp::StampApp;
use asymfence_workloads::unannot::InferredKernel;
use asymfence_workloads::ustm::UstmBench;

/// The seed the pinned digests are recorded for (the harness default).
pub const DEFAULT_SEED: u64 = asymfence_bench::SEED;

/// The ustm microbenchmarks of the `stm` workload.
pub const STM_USTM: [UstmBench; 3] = [UstmBench::Counter, UstmBench::Hash, UstmBench::Tree];
/// Core counts the ustm cells run at.
pub const STM_CORES: [usize; 3] = [8, 16, 32];
/// Simulated-cycle window of every ustm cell.
pub const STM_WINDOW: u64 = 100_000;
/// Core count of the STAMP cells.
pub const STAMP_CORES: usize = 8;
/// Core counts the CilkApps run at.
pub const CILK_CORES: [usize; 3] = [4, 8, 16];

/// Oracle seeds per synthesized candidate (the synth/analyze quick
/// budget).
pub const ORACLE_SEEDS: u64 = 8;
/// Per-run cycle cap of the oracle sweeps. Accepted candidates finish
/// in a few thousand cycles; rejected ones that livelock are cut here
/// instead of at the explorer's default million.
pub const ORACLE_MAX_CYCLES: u64 = 100_000;
/// Reorder bound of the exhaustive litmus walks.
pub const DPOR_BOUND: usize = 3;

/// The benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ustm at 8/16/32 cores over a window, plus STAMP at 8 cores.
    Stm,
    /// The ten CilkApps at 4/8/16 cores, run to completion.
    Cilk,
    /// Synthesis, inference + lowering, and exhaustive exploration.
    FenceTools,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Stm, Workload::Cilk, Workload::FenceTools];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stm => "stm",
            Workload::Cilk => "cilk",
            Workload::FenceTools => "fence-tools",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// splitmix64: a well-mixed 64-bit hash of `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The input seed of comparison group `group` (one application at one
/// core count; every design of the group shares it, so design ratios
/// compare equal inputs).
pub fn group_seed(seed: u64, group: u64) -> u64 {
    mix(seed ^ mix(group))
}

/// One simulator cell plus the comparison group it belongs to.
#[derive(Clone, Copy, Debug)]
pub struct SimCell {
    /// The run.
    pub spec: RunSpec,
    /// Index of its (application, cores) group.
    pub group: usize,
}

impl SimCell {
    /// Seed-free label, stable across seeds (the digest key).
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}c",
            self.spec.workload.name(),
            self.spec.design.label(),
            self.spec.cores
        )
    }
}

/// The `stm` cells, ordered by core count so the pooled machine is
/// rebuilt only when the hardware shape changes.
pub fn stm_cells(seed: u64) -> Vec<SimCell> {
    let mut cells = Vec::new();
    let mut group = 0;
    for &cores in &STM_CORES {
        for &bench in &STM_USTM {
            let s = group_seed(seed, group as u64);
            for &d in &DESIGNS {
                cells.push(SimCell {
                    spec: RunSpec::ustm(bench, d, cores, s, STM_WINDOW),
                    group,
                });
            }
            group += 1;
        }
        if cores == STAMP_CORES {
            for app in StampApp::ALL {
                let s = group_seed(seed, group as u64);
                for &d in &DESIGNS {
                    cells.push(SimCell {
                        spec: RunSpec::stamp(app, d, cores, s),
                        group,
                    });
                }
                group += 1;
            }
        }
    }
    cells
}

/// The `cilk` cells, ordered by core count.
pub fn cilk_cells(seed: u64) -> Vec<SimCell> {
    let mut cells = Vec::new();
    let mut group = 0;
    for &cores in &CILK_CORES {
        for app in CilkApp::ALL {
            let s = group_seed(seed, group as u64);
            for &d in &DESIGNS {
                cells.push(SimCell {
                    spec: RunSpec::cilk(app, d, cores, s),
                    group,
                });
            }
            group += 1;
        }
    }
    cells
}

/// One exhaustive-exploration cell: a corpus scenario (roles re-tagged
/// for the design) with its expected verdict.
#[derive(Clone, Debug)]
pub struct DporCell {
    /// The scenario, roles already set for `design`.
    pub scenario: Scenario,
    /// The design explored under.
    pub design: FenceDesign,
    /// Whether the walk must come out clean (a proof of SC up to the
    /// bound) rather than convict.
    pub expect_sc: bool,
}

impl DporCell {
    /// Stable label.
    pub fn label(&self) -> String {
        format!("dpor/{}/{}", self.scenario.name, self.design.label())
    }
}

/// Everything the `fence-tools` workload runs.
#[derive(Clone, Debug)]
pub struct ToolsInput {
    /// Workload seed of the synthesizer (oracle machines and scoring
    /// runs) and of the inference interpreter.
    pub seed: u64,
    /// Hand-annotated site benches searched by `synthesize`.
    pub benches: Vec<SiteBench>,
    /// Unannotated kernels taken through analyze → search → lower.
    pub kernels: Vec<InferredKernel>,
    /// Designs searched for both.
    pub designs: Vec<FenceDesign>,
    /// Oracle budget of the searches.
    pub oracle: ExploreConfig,
    /// Exhaustive-walk cells.
    pub dpor: Vec<DporCell>,
    /// Exhaustive-walk configuration.
    pub dpor_cfg: DporConfig,
}

/// The `fence-tools` input: all five site benches and six kernels under
/// the four synthesis designs, and the litmus corpus under every safe
/// design plus the SW+ all-weak Dekker conviction.
pub fn tools_input(seed: u64) -> ToolsInput {
    let explore_default = Explorer::default().cfg;
    let mut dpor = Vec::new();
    for (scenario, expect_sc) in Scenario::litmus_corpus() {
        for &design in &ALL_DESIGNS {
            dpor.push(DporCell {
                scenario: scenario.clone().with_roles_for(design),
                design,
                expect_sc,
            });
        }
    }
    dpor.push(DporCell {
        scenario: Scenario::store_buffering_all_weak(),
        design: FenceDesign::SwPlus,
        expect_sc: false,
    });
    ToolsInput {
        seed: mix(seed),
        benches: SiteBench::ALL.to_vec(),
        kernels: InferredKernel::ALL.to_vec(),
        designs: SYNTH_DESIGNS.to_vec(),
        oracle: ExploreConfig {
            seeds: ORACLE_SEEDS,
            max_cycles: ORACLE_MAX_CYCLES,
            ..explore_default
        },
        dpor,
        dpor_cfg: DporConfig::from_explore(&explore_default, DPOR_BOUND),
    }
}
