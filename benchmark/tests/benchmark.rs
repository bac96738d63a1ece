//! The benchmark's own checks: seeds vary inputs but not shape, the
//! tail-percentile rule, digest stability, and metric names against
//! `BENCHMARK.json`.

use std::path::Path;

use asymfence::prelude::FenceDesign;
use asymfence_bench::RunSpec;
use asymfence_benchmark::gen::{self, Workload};
use asymfence_benchmark::run::{self, Report, Values};
use asymfence_benchmark::stats::{percentile, tail_percentile};
use asymfence_benchmark::{digest, sim, spans::Spans, tools, END_TO_END, PER_LAYER};
use asymfence_common::telemetry::Json;
use asymfence_explore::Explorer;
use asymfence_workloads::cilk::CilkApp;

fn shape(cells: &[gen::SimCell]) -> Vec<String> {
    cells.iter().map(|c| c.label()).collect()
}

fn seeds(cells: &[gen::SimCell]) -> Vec<u64> {
    cells.iter().map(|c| c.spec.seed).collect()
}

#[test]
fn seed_changes_inputs_but_not_shape() {
    for make in [gen::stm_cells, gen::cilk_cells] {
        let (a, b) = (make(1), make(2));
        assert_eq!(shape(&a), shape(&b));
        assert_ne!(seeds(&a), seeds(&b));
        assert_eq!(seeds(&a), seeds(&make(1)), "same seed, same inputs");
        // Every design of one comparison group shares its input seed.
        for c in &a {
            let first = a.iter().find(|d| d.group == c.group).expect("own group");
            assert_eq!(c.spec.seed, first.spec.seed);
        }
    }
    let (a, b) = (gen::tools_input(1), gen::tools_input(2));
    assert_ne!(a.seed, b.seed);
    assert_eq!(a.benches, b.benches);
    assert_eq!(a.kernels, b.kernels);
    assert_eq!(a.designs, b.designs);
    let labels = |i: &gen::ToolsInput| i.dpor.iter().map(|c| c.label()).collect::<Vec<_>>();
    assert_eq!(labels(&a), labels(&b));
    assert_eq!(gen::stm_cells(3).len(), 60);
    assert_eq!(gen::cilk_cells(3).len(), 120);
    assert_eq!(a.dpor.len(), 46);
}

#[test]
fn tail_percentile_leaves_ten_cells_beyond() {
    assert_eq!(tail_percentile(19, 10), None);
    assert_eq!(tail_percentile(20, 10), Some(50));
    assert_eq!(tail_percentile(60, 10), Some(83));
    assert_eq!(tail_percentile(120, 10), Some(91));
    assert_eq!(tail_percentile(1000, 10), Some(99));
    for n in 20..500 {
        let p = tail_percentile(n, 10).expect("n >= 20");
        let xs: Vec<f64> = (1..=n).map(|x| x as f64).collect();
        let v = percentile(&xs, p);
        assert!(xs.iter().filter(|&&x| x > v).count() >= 10, "n={n} p={p}");
        if p < 99 {
            let next = percentile(&xs, p + 1);
            assert!(
                xs.iter().filter(|&&x| x > next).count() < 10,
                "p{p} is not the highest"
            );
        }
    }
}

#[test]
fn digests_are_stable_across_executions() {
    let spec = RunSpec::cilk(CilkApp::Fib, FenceDesign::WsPlus, 4, gen::group_seed(5, 0));
    let a = spec.execute();
    let b = spec.execute();
    assert_eq!(digest::run_result(&a), digest::run_result(&b));

    // The replica rebuilt from public calls is the same program.
    let mut slot = None;
    let mut spans = Spans::new();
    let mut counts = sim::ReplicaCounts::default();
    let r = sim::replica_cell(&spec, &mut slot, &mut spans, &mut counts);
    assert!(sim::same_result(&r, &a));
    assert_eq!(spans.total("core.run").count, 1);

    // A different input seed changes the output.
    let other = RunSpec::cilk(CilkApp::Fib, FenceDesign::WsPlus, 4, gen::group_seed(6, 0));
    assert_ne!(digest::run_result(&other.execute()), digest::run_result(&a));

    // Exhaustive walks digest identically too, with a fixed verdict.
    let input = gen::tools_input(5);
    let cell = input
        .dpor
        .iter()
        .find(|c| c.label() == "dpor/mp-unfenced/S+")
        .expect("corpus cell");
    let explorer = Explorer::default().with_jobs(1);
    let walk = |census: &std::sync::Mutex<_>| tools::walk(&explorer, cell, &input, None, census);
    let (c1, c2) = Default::default();
    let (w1, w2) = (walk(&c1), walk(&c2));
    assert_eq!(tools::walk_digest(&w1), tools::walk_digest(&w2));
    assert_eq!(
        tools::census_digest(&c1.into_inner().unwrap()),
        tools::census_digest(&c2.into_inner().unwrap())
    );
    tools::walk_verdict(cell, &w1).expect("message passing is SC");
}

#[test]
fn pinned_digest_files_cover_every_cell() {
    for w in Workload::ALL {
        let text = std::fs::read_to_string(digest::pin_path(w.name())).expect("pinned file");
        let pins = digest::parse_pins(&text).expect("well-formed pins");
        let labels: Vec<String> = match w {
            Workload::Stm => shape(&gen::stm_cells(gen::DEFAULT_SEED)),
            Workload::Cilk => shape(&gen::cilk_cells(gen::DEFAULT_SEED)),
            Workload::FenceTools => {
                let input = gen::tools_input(gen::DEFAULT_SEED);
                let mut l = Vec::new();
                for b in &input.benches {
                    for d in &input.designs {
                        l.push(format!("synth/{}/{}", b.name(), d.label()));
                    }
                }
                for k in &input.kernels {
                    l.push(format!("infer/{}", k.name()));
                    for d in &input.designs {
                        l.push(format!("search/{}/{}", k.name(), d.label()));
                    }
                }
                l.extend(input.dpor.iter().map(|c| c.label()));
                l.push("dpor/census".into());
                l
            }
        };
        assert_eq!(pins.len(), labels.len(), "{}", w.name());
        for l in labels {
            assert!(pins.contains_key(&l), "{}: no pin for {l}", w.name());
        }
    }
}

fn names(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let table = |t: &[(&str, &str)]| {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&json, "end_to_end"), table(END_TO_END));
    assert_eq!(names(&json, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    // What a run prints is exactly its table, in order, even when a
    // workload leaves some values unset.
    for t in [END_TO_END, PER_LAYER] {
        let mut report = Report::default();
        let mut v = Values::new();
        v.insert(t[0].0, 1.5);
        run::emit(&mut report, t, &v);
        let printed = report.result_json();
        let metrics = match printed.get("metrics") {
            Some(Json::Obj(fields)) => fields.clone(),
            other => panic!("metrics object expected, got {other:?}"),
        };
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(got, table(t));
        let keys: Vec<&str> = match &printed {
            Json::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
            _ => unreachable!(),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
