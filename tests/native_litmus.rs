//! Native litmus hammering: the store-buffering and message-passing
//! shapes the simulator proves bounded-exhaustively, re-run on real
//! threads under the native fence pairs.
//!
//! These are loom-shaped stress tests, not proofs: each kernel races
//! its two threads through thousands of fresh rounds and asserts the
//! forbidden outcome never surfaces. With the asymmetric pair the heavy
//! side (membarrier, or `fence(SeqCst)` on the fallback backend) is the
//! only hardware fence in the race — exactly the paper's claim that the
//! hot side needs none.
//!
//! Iteration count: `ASF_NATIVE_ITERS` (default 4000; CI raises it).

use asymfence_native::{
    backend, dekker, mp_hammer, sb_hammer, AllHeavy, Asymmetric, FencePair, HwSeqCst, TheDeque,
    TlrwStm,
};

fn iters() -> u64 {
    std::env::var("ASF_NATIVE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4_000)
}

/// The host a failure happened on: its CPU count and the probed fence
/// backend. The races these tests sample open wider with more CPUs, and
/// the asymmetric pair is only sound with the backend's heavy side.
fn host() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{cpus} available CPUs, backend {}", backend().label())
}

fn sb_clean<P: FencePair>(pair: P) {
    let r = sb_hammer(pair, iters());
    assert_eq!(
        r.violations,
        0,
        "SB both-read-0 observed under {} ({})",
        pair.name(),
        host()
    );
    assert_eq!(r.ops, iters());
}

fn mp_clean<P: FencePair>(pair: P) {
    let r = mp_hammer(pair, iters());
    assert_eq!(
        r.violations,
        0,
        "MP stale data observed under {} ({})",
        pair.name(),
        host()
    );
}

/// SB with the asymmetric pair: thread 0's fence is a compiler fence
/// under the membarrier backend, thread 1's is the heavy side. The
/// paper's headline litmus.
#[test]
fn sb_asymmetric_never_violates() {
    sb_clean(Asymmetric);
}

/// SB with both sides heavy (S+ analogue).
#[test]
fn sb_all_heavy_never_violates() {
    sb_clean(AllHeavy);
}

/// SB with the portable `fence(SeqCst)` control.
#[test]
fn sb_seqcst_never_violates() {
    sb_clean(HwSeqCst);
}

/// MP with the asymmetric pair: the writer pays the heavy fence, the
/// reader's fence is compiler-only under membarrier.
#[test]
fn mp_asymmetric_never_violates() {
    mp_clean(Asymmetric);
}

/// MP with both sides heavy.
#[test]
fn mp_all_heavy_never_violates() {
    mp_clean(AllHeavy);
}

/// Dekker mutual exclusion holds under the asymmetric pair: the CS
/// witness never sees a second occupant across `iters` entries/thread.
#[test]
fn dekker_asymmetric_mutual_exclusion() {
    let r = dekker(Asymmetric, iters());
    assert_eq!(
        r.violations,
        0,
        "dekker mutual exclusion violated ({})",
        host()
    );
    assert_eq!(r.ops, 2 * iters());
}

/// The THE deque conserves tasks under an owner/thief race with the
/// asymmetric pair (no task lost to the take/steal fence window, none
/// handed out twice).
#[test]
fn deque_conserves_tasks_asymmetric() {
    let tasks = iters();
    let q = TheDeque::new(128, Asymmetric);
    let done = std::sync::atomic::AtomicBool::new(false);
    use std::sync::atomic::Ordering;
    let (owner_sum, thief_sum) = std::thread::scope(|s| {
        let thief = s.spawn(|| {
            let mut sum = 0u64;
            while !done.load(Ordering::Acquire) {
                match q.steal() {
                    Some(v) => sum += v,
                    None => std::thread::yield_now(),
                }
            }
            while let Some(v) = q.steal() {
                sum += v;
            }
            sum
        });
        let mut sum = 0u64;
        for task in 1..=tasks {
            while !q.push(task) {
                if let Some(v) = q.take() {
                    sum += v;
                }
            }
            if task % 3 == 0 {
                if let Some(v) = q.take() {
                    sum += v;
                }
            }
        }
        while let Some(v) = q.take() {
            sum += v;
        }
        done.store(true, Ordering::Release);
        (sum, thief.join().unwrap())
    });
    assert_eq!(
        owner_sum + thief_sum,
        tasks * (tasks + 1) / 2,
        "deque lost or duplicated tasks ({})",
        host()
    );
}

/// Builds a native [`asymfence_native::C11Pair`] by running the whole
/// inference pipeline on an *unannotated* kernel: recover footprints,
/// place fences, synthesize WS+ strengths (8-seed oracle), lower to
/// C11, and parse the per-site labels back into real fences. Thread 0's
/// site fills the `critical` slot, thread 1's the `noncritical` one —
/// the same wiring the native kernels use.
fn analyzer_lowered_pair(
    kernel: asymfence_workloads::unannot::InferredKernel,
) -> (asymfence_native::C11Pair, bool) {
    use asymfence::prelude::FenceDesign;
    use asymfence_explore::{ExploreConfig, Explorer};

    let a = asymfence_analyze::analyze(kernel, asymfence_bench::SEED);
    let explorer = Explorer::new(ExploreConfig {
        seeds: 8,
        ..Default::default()
    });
    let runner = asymfence_bench::Runner::with_jobs(2).progress(false);
    let mut synth = asymfence_synth::Synthesizer::new(explorer, runner, asymfence_bench::SEED);
    let r = synth.synthesize_inferred(a.kernel, &a.placement, FenceDesign::WsPlus, None);
    let best = r.best.expect("inferred placement must be oracle-valid under WS+");
    let lowering = asymfence_analyze::lower(&a.placement, &r.groups, best.mask);

    let fence_of = |thread: usize| {
        let i = a
            .placement
            .fences
            .iter()
            .position(|f| f.thread == thread)
            .expect("one site per thread");
        asymfence_native::C11Fence::from_label(lowering.fences[i].lower.label())
            .expect("lowering labels parse")
    };
    (
        asymfence_native::C11Pair {
            critical: fence_of(0),
            noncritical: fence_of(1),
        },
        lowering.asymmetric,
    )
}

/// The tentpole end-to-end: the analyzer's zero-annotation Peterson
/// placement, synthesized and lowered to C11, holds mutual exclusion on
/// real threads. Run under both backends in CI (the default and
/// `ASF_NATIVE_BACKEND=fallback`).
#[test]
fn peterson_analyzer_lowered_c11_mutual_exclusion() {
    let (pair, asymmetric) = analyzer_lowered_pair(
        asymfence_workloads::unannot::InferredKernel::Peterson,
    );
    assert!(asymmetric, "peterson's WS+ lowering should be light/heavy");
    let r = asymfence_native::peterson(pair, iters());
    assert_eq!(
        r.violations,
        0,
        "analyzer-lowered Peterson violated mutual exclusion under {:?} ({})",
        pair,
        host()
    );
    assert_eq!(r.ops, 2 * iters());
}

/// Same pipeline on the store-buffering kernel: the inferred WS+
/// lowering (heavy on thread 0, light on thread 1) forbids the
/// both-read-0 outcome on silicon.
#[test]
fn sb_analyzer_lowered_c11_never_violates() {
    let (pair, asymmetric) =
        analyzer_lowered_pair(asymfence_workloads::unannot::InferredKernel::Sb);
    assert!(asymmetric, "sb's WS+ lowering should be light/heavy");
    let r = sb_hammer(pair, iters());
    assert_eq!(
        r.violations,
        0,
        "analyzer-lowered SB observed both-read-0 under {:?} ({})",
        pair,
        host()
    );
}

/// TLRW loses no increments on a hot counter under the asymmetric pair
/// (the read barrier's store→load window is the racy part).
#[test]
fn tlrw_counter_exact_asymmetric() {
    let per_thread = iters().min(10_000);
    let stm = TlrwStm::new(2, 2, Asymmetric);
    std::thread::scope(|s| {
        for tid in 0..2 {
            let stm = &stm;
            s.spawn(move || {
                for _ in 0..per_thread {
                    stm.run(tid, |tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    });
                }
            });
        }
    });
    assert_eq!(
        stm.peek(0),
        2 * per_thread,
        "TLRW lost an increment ({})",
        host()
    );
}
