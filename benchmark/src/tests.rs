use std::ffi::OsString;
use std::path::PathBuf;

use super::*;
use crate::run::{run_machine, warm_up, Ledger};

fn results() -> PathBuf {
    repo_root().join("results")
}

fn committed_state(workload: Workload, index: usize) -> CaseState {
    let case = workload.cases().remove(index);
    let path = results().join(format!("{}.json", case.figure));
    let doc = Json::parse(&std::fs::read_to_string(path).expect("committed figure"))
        .expect("committed figure parses");
    let committed = case.committed(&doc).expect("committed row");
    CaseState::new(case, committed, DEFAULT_SEED)
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
    assert_eq!(metrics::tail(&upto(99), 90), None);
    assert_eq!(metrics::tail(&upto(100), 90), Some(90.0));
    assert_eq!(metrics::tail(&upto(110), 90), Some(99.0));
    assert_eq!(metrics::tail(&[], 90), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn every_case_matches_its_committed_row_after_one_round() {
    let tracer = Tracer::new();
    for workload in Workload::ALL {
        let mut cases = resolve_cases(workload, &results(), DEFAULT_SEED)
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
        let mut ledger = Ledger::default();
        for state in &mut cases {
            assert!(state.expected.is_some(), "{}", state.name);
            let checkpoint = workload == Workload::ObservedCheckpoint;
            warm_up(state, DEFAULT_SEED, checkpoint, &tracer, &mut ledger);
        }
        assert_eq!(ledger.failed, 0, "{workload}: {:?}", ledger.failures);
        assert!(ledger.attempted >= cases.len() as u64);
    }
}

#[test]
fn a_wrong_committed_value_fails_ops_that_are_still_timed() {
    let mut state = committed_state(Workload::ToneBarrier, 0);
    state.expected = state.expected.map(|v| v + 1.0);
    let tracer = Tracer::new();
    let run = run_machine(
        Workload::ToneBarrier,
        vec![state],
        DEFAULT_SEED,
        0.0,
        false,
        &tracer,
    );
    assert!(run.ledger.attempted >= 2, "warm-up plus a timed round");
    assert_eq!(run.ledger.failed, run.ledger.attempted);
    assert!(run.ledger.failures[0].2.contains("figure value"));
    let e2e = metrics::end_to_end(&run);
    assert_eq!(e2e["failed_frac"].value, 1.0);
    assert!(e2e["round_s_p50"].value > 0.0);
    assert!(e2e["sim_mcycles_per_s"].value > 0.0);
    assert!(e2e["setup_s"].value > 0.0);
    assert!(e2e["host_speed"].value.is_finite() && e2e["host_speed"].value > 0.0);
}

#[test]
fn wisync_knobs_are_refused_by_name() {
    let env = |pairs: &[(&str, &str)]| -> Vec<(OsString, OsString)> {
        pairs
            .iter()
            .map(|(k, v)| (OsString::from(k), OsString::from(v)))
            .collect()
    };
    assert!(check_env(env(&[("PATH", "x"), ("HOME", "y")])).is_ok());
    let err = check_env(env(&[
        ("WISYNC_MAC", "token"),
        ("PATH", "x"),
        ("WISYNC_SHARDS", "4"),
    ]))
    .unwrap_err();
    assert!(
        err.contains("WISYNC_MAC") && err.contains("WISYNC_SHARDS"),
        "{err}"
    );
    assert!(!err.contains("PATH"), "{err}");
}

#[test]
fn bad_arguments_are_errors_naming_the_valid_values() {
    let args = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let ok = args(&[
        "--workload",
        "figures",
        "--seed",
        "0x10",
        "--seconds",
        "5",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(
        (ok.workload, ok.seed, ok.seconds, ok.trace),
        (Workload::Figures, 16, 5, true)
    );
    assert_eq!(
        args(&["--workload", "coherence"]).unwrap().seed,
        DEFAULT_SEED
    );
    let err = args(&["--workload", "nope"]).unwrap_err();
    for w in Workload::ALL {
        assert!(err.contains(w.name()), "{err}");
    }
    let seed = args(&["--workload", "coherence", "--seed", "12z"]).unwrap_err();
    assert!(seed.contains("--seed"), "{seed}");
    assert!(args(&["--workload", "coherence", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "coherence", "--seconds", "0"]).is_err());
    assert!(args(&["--workload"]).is_err());
    assert!(args(&["--frobnicate"]).unwrap_err().contains("--workload"));
    assert!(args(&[]).is_err());
}

#[test]
fn span_document_parses_and_children_nest_in_existing_parents() {
    // fig7/64cores@WiSyncNoT: the cheapest checkpointed case.
    let state = committed_state(Workload::ObservedCheckpoint, 2);
    let tracer = Tracer::new();
    let run = run_machine(
        Workload::ObservedCheckpoint,
        vec![state],
        DEFAULT_SEED,
        0.0,
        true,
        &tracer,
    );
    assert_eq!(run.ledger.failed, 0, "{:?}", run.ledger.failures);
    let spans = tracer.spans();
    let text = trace::to_chrome(&spans, "observed_checkpoint").render();
    let doc = Json::parse(&text).expect("span document parses");
    assert_eq!(trace::validate(&doc), Ok(spans.len()));
    for name in [
        "round",
        "case",
        "core.new",
        "workloads.load",
        "core.run",
        "snap.snapshot",
        "snap.restore",
        "workloads.check",
        "obs.export",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
    // The run segments (leaves) keep all of their time as self time.
    let rounds = trace::by_round(&spans);
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == "core.run")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    assert_eq!(
        rounds.values().map(|r| r.self_ns["core.run"]).sum::<u64>(),
        total
    );

    let mut orphan = spans.clone();
    let child = orphan
        .iter_mut()
        .find(|s| s.parent != 0)
        .expect("a child span");
    child.parent = u64::MAX;
    let err = trace::validate(&trace::to_chrome(&orphan, "x")).unwrap_err();
    assert!(err.contains("missing"), "{err}");

    let mut escaped = spans;
    let child = escaped
        .iter_mut()
        .find(|s| s.parent != 0)
        .expect("a child span");
    child.end_ns += 1_000_000_000;
    let err = trace::validate(&trace::to_chrome(&escaped, "x")).unwrap_err();
    assert!(err.contains("not inside"), "{err}");
}

#[test]
fn every_per_layer_metric_is_measured() {
    // fig7/64cores@Baseline: the cheapest case, which makes no
    // snapshot, obs or Data-channel calls in its timed rounds.
    let state = committed_state(Workload::Coherence, 0);
    let case = state.case.clone();
    let tracer = Tracer::new();
    let mut run = run_machine(
        Workload::Coherence,
        vec![state],
        DEFAULT_SEED,
        0.0,
        true,
        &tracer,
    );
    let pass = probes::layer_pass(vec![case], DEFAULT_SEED, &tracer, 10, &mut run.ledger);
    assert_eq!(run.ledger.failed, 0, "{:?}", run.ledger.failures);
    let values = metrics::per_layer(
        &run,
        &LayerInputs {
            spans: &tracer.spans(),
            pass: &pass,
            probes: &run_probes(),
        },
    );
    for (name, unit) in PER_LAYER {
        let v = values.get(name).unwrap_or_else(|| panic!("{name} missing"));
        if ["s", "ms", "ns", "bytes"].contains(&unit) || name == "obs.trace_rows" {
            assert!(v.value > 0.0, "{name} = {}", v.value);
        }
    }
    assert_eq!(values["wireless.data.transfers"].value, 0.0);
    assert_eq!(values["core.pause_divergent_cases"].value, 0.0);
}

#[test]
fn layer_pass_counts_the_pause_divergence_without_failing_ops() {
    // fig9/FIFO_w16@WiSync: pausing alone moves its result (see README).
    let case = committed_state(Workload::DataChannel, 2).case;
    let tracer = Tracer::new();
    let mut ledger = Ledger::default();
    let pass = probes::layer_pass(vec![case], DEFAULT_SEED, &tracer, 1, &mut ledger);
    assert_eq!(pass.divergent, 1);
    assert_eq!(ledger.failed, 0, "{:?}", ledger.failures);
    // Two references, then three variants three times.
    assert_eq!(ledger.attempted, 11);
}

/// The settings of a manifest's `[profile.release]` table, without
/// comments or blank lines.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest");
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_matches_the_repository_one() {
    let ours = release_profile(&Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
    assert!(!ours.is_empty(), "benchmark has no [profile.release]");
    assert_eq!(ours, release_profile(&repo_root().join("Cargo.toml")));
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let field = |item: &Json, key: &str| match item.get(key) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        items
            .iter()
            .map(|item| fields.iter().map(|f| field(item, f)).collect())
            .collect()
    };
    let names: Vec<Vec<String>> = Workload::ALL
        .iter()
        .map(|w| vec![w.name().to_string()])
        .collect();
    assert_eq!(list("workloads", &["name"]), names);
    let table = |t: &[(&str, &str)]| -> Vec<Vec<String>> {
        t.iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect()
    };
    assert_eq!(list("end_to_end", &["name", "unit"]), table(&END_TO_END));
    assert_eq!(list("per_layer", &["name", "unit"]), table(&PER_LAYER));
}

#[test]
fn host_times_scale_by_the_kernel_speed_to_the_sensitivity() {
    use crate::speed::{Reference, NOMINAL_S, SENSITIVITY};
    use std::time::Duration;
    let at = |kernel_s: f64| {
        let start = Instant::now();
        Reference {
            start,
            end: start + Duration::from_secs_f64(kernel_s),
        }
    };
    assert!((at(NOMINAL_S).speed() - 1.0).abs() < 1e-9);
    // A host at half speed doubles the kernel's time; its host times are
    // scaled down by more than half.
    let slow = at(2.0 * NOMINAL_S);
    assert!((slow.took() - 2.0 * NOMINAL_S).abs() < 1e-9);
    assert!((slow.speed() - 0.5f64.powf(SENSITIVITY)).abs() < 1e-9);
    assert!(Reference::run().speed().is_finite());
}
