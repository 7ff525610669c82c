//! The repository benchmark: times the committed figure-grid runs of the
//! WiSync simulator and checks every result against its oracle.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Stdout carries the full report (every metric with its unit and sample
//! count, a per-case table, the failures) and, as its last line, a
//! one-line summary. `benchmark/README.md` describes the workloads,
//! metrics and bounds.

mod cases;
mod metrics;
mod probes;
mod run;
mod speed;
mod trace;

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use wisync_testkit::Json;

use cases::{Workload, DEFAULT_SEED};
use metrics::{median, LayerInputs, Values, DIAGNOSTICS, END_TO_END, PER_FIGURE, PER_LAYER};
use run::{CaseState, Op, Run};
use trace::Tracer;

const DEFAULT_SECONDS: u64 = 24;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn workload_names() -> String {
    Workload::ALL.map(Workload::name).join(", ")
}

fn usage() -> String {
    format!(
        "usage: benchmark --workload <name> [--seed N] [--seconds N] [--trace 0|1]\n\
         \x20 --workload  one of: {}\n\
         \x20 --seed      decimal or 0x-hex u64 (default 0x{DEFAULT_SEED:X})\n\
         \x20 --seconds   seconds of timed rounds, 1..=3600 (default {DEFAULT_SECONDS})\n\
         \x20 --trace     1 records spans and reports the per-layer metrics (default 0)",
        workload_names()
    )
}

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("malformed --seed {v:?}: expected a decimal or 0x-hex u64"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::parse(v).ok_or_else(|| {
                    format!("unknown workload {v:?}; valid: {}", workload_names())
                })?;
                workload = Some(w);
            }
            "--seed" => seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds {v:?}: expected 1..=3600"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?}: expected 0 or 1")),
                }
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}; valid: --workload, --seed, --seconds, --trace"
                ))
            }
        }
    }
    let workload = workload.ok_or_else(|| "--workload is required".to_string())?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Refuses every `WISYNC_*` variable: `MachineConfig`'s constructors and
/// the grid read `WISYNC_EXEC`, `WISYNC_MAC` and `WISYNC_SHARDS`
/// silently, which would time a different program.
fn check_env(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Result<(), String> {
    let mut set: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("WISYNC_"))
        .collect();
    set.sort();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {}: WISYNC_* knobs change the simulated configuration",
            set.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    // glibc raises its mmap threshold the first time it frees a large
    // mapped block, so whether a later large `Vec` grows by `mremap` or
    // by copying depends on what ran before it, and `VmHWM` on
    // `observed_checkpoint` moved between 75 and 92 MB with the seed and
    // the run length. Raising it once up front (31 MB is under glibc's
    // 32 MB cap) starts every run in the state a long-running process
    // reaches anyway.
    drop(std::hint::black_box(Vec::<u8>::with_capacity(31 << 20)));
    let argv: Result<Vec<String>, OsString> = std::env::args_os()
        .skip(1)
        .map(OsString::into_string)
        .collect();
    let args = match argv.map_err(|a| format!("argument {a:?} is not UTF-8")) {
        Ok(argv) => parse_args(&argv),
        Err(e) => Err(e),
    };
    let args = match args {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_env(std::env::vars_os()) {
        eprintln!("benchmark: {e}");
        return ExitCode::from(2);
    }
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    match bench(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The workload's cases, each with its committed figure value.
fn resolve_cases(workload: Workload, results: &Path, seed: u64) -> Result<Vec<CaseState>, String> {
    let mut docs: BTreeMap<&str, Json> = BTreeMap::new();
    let mut states = Vec::new();
    for case in workload.cases() {
        if !docs.contains_key(case.figure) {
            let path = results.join(format!("{}.json", case.figure));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
            docs.insert(case.figure, doc);
        }
        let committed = case.committed(&docs[case.figure])?;
        states.push(CaseState::new(case, committed, seed));
    }
    Ok(states)
}

fn run_probes() -> Vec<(&'static str, f64)> {
    vec![
        ("sim.queue.push_pop_ns", probes::queue_push_pop_ns()),
        ("mem.access_ns.private_read", probes::mem_private_read_ns()),
        ("mem.access_ns.shared_write", probes::mem_shared_write_ns()),
        ("wireless.data.tx_ns", probes::data_tx_ns()),
        ("wireless.tone.barrier_ns", probes::tone_barrier_ns()),
    ]
}

fn ms(s: f64) -> Json {
    Json::F64(s * 1e3)
}

/// One row per case (or sweep job) of the run's untraced rounds.
fn case_table(run: &Run) -> Vec<Json> {
    run.labels
        .iter()
        .enumerate()
        .map(|(i, label)| {
            let ops: Vec<&Op> = run
                .rounds
                .iter()
                .filter(|r| !r.traced)
                .flat_map(|r| &r.ops)
                .filter(|o| o.case == i)
                .collect();
            // Host times at the nominal host speed, like the metrics.
            let p50 = |f: &dyn Fn(&Op) -> f64| {
                ms(median(
                    &ops.iter().map(|o| f(o) * o.speed).collect::<Vec<_>>(),
                ))
            };
            let mut row = vec![
                ("case", Json::Str(label.clone())),
                ("ops", Json::U64(ops.len() as u64)),
                ("op_ms_p50", p50(&|o| o.total_s)),
                ("sim_ms_p50", p50(&|o| o.sim_s)),
            ];
            if let Some(state) = run.cases.get(i) {
                let cycles = state.reference.as_ref().map(|r| r.cycles);
                let quantity = state
                    .uninterrupted
                    .as_ref()
                    .map(|u| state.case.quantity(u.cycles, &u.stats));
                row.extend([
                    ("cores", Json::U64(state.case.cores as u64)),
                    ("cycles", cycles.map_or(Json::Null, Json::U64)),
                    ("figure_value", quantity.map_or(Json::Null, Json::F64)),
                    ("committed", state.expected.map_or(Json::Null, Json::F64)),
                    ("cuts", cuts_json(&state.cuts)),
                    ("setup_ms_p50", p50(&|o| o.times.setup())),
                    ("check_ms_p50", p50(&|o| o.times.check)),
                    ("snapshot_ms_p50", p50(&|o| o.times.snapshot)),
                    ("restore_ms_p50", p50(&|o| o.times.restore)),
                    ("export_ms_p50", p50(&|o| o.times.export)),
                ]);
            }
            Json::obj(row)
        })
        .collect()
}

fn cuts_json(cuts: &[u64]) -> Json {
    Json::Arr(cuts.iter().map(|c| Json::U64(*c)).collect())
}

/// Cases whose run paused at the cuts ends differently from the
/// uninterrupted run.
fn divergences(run: &Run) -> Vec<Json> {
    run.cases
        .iter()
        .filter(|state| state.pause_diverges())
        .map(|state| {
            let (u, p) = (
                state.uninterrupted.as_ref().expect("diverging cases ran"),
                state.reference.as_ref().expect("diverging cases ran"),
            );
            Json::obj([
                ("case", Json::Str(state.name.clone())),
                ("cuts", cuts_json(&state.cuts)),
                ("uninterrupted_cycles", Json::U64(u.cycles)),
                ("paused_cycles", Json::U64(p.cycles)),
            ])
        })
        .collect()
}

/// `{name: {value, unit[, samples]}}` for the metrics of `table` that
/// `values` holds.
fn metrics_json(values: &Values, table: &[(&'static str, &'static str)], samples: bool) -> Json {
    Json::Obj(
        table
            .iter()
            .filter_map(|&(name, unit)| {
                let v = values.get(name)?;
                let mut fields = vec![("value", Json::F64(v.value)), ("unit", Json::from(unit))];
                if samples {
                    fields.push(("samples", Json::U64(v.samples as u64)));
                }
                Some((name.to_string(), Json::obj(fields)))
            })
            .collect(),
    )
}

/// A rendered document on one line (strings never hold raw newlines,
/// so dropping each line's indentation keeps the JSON intact).
fn one_line(doc: &Json) -> String {
    doc.render().lines().map(str::trim_start).collect()
}

fn bench(args: Args) -> Result<bool, String> {
    let started = Instant::now();
    let results = repo_root().join("results");
    let tracer = Arc::new(Tracer::new());
    let mut run = match args.workload {
        Workload::Figures => run::run_figures(&results, args.seconds as f64, args.trace, &tracer)?,
        workload => run::run_machine(
            workload,
            resolve_cases(workload, &results, args.seed)?,
            args.seed,
            args.seconds as f64,
            args.trace,
            &tracer,
        ),
    };
    let per_layer = args.trace.then(|| {
        let first_round = run.rounds.len() as u64 + 1;
        let pass = probes::layer_pass(
            args.workload.layer_cases(),
            args.seed,
            &tracer,
            first_round,
            &mut run.ledger,
        );
        let spans = tracer.spans();
        let values = metrics::per_layer(
            &run,
            &LayerInputs {
                spans: &spans,
                pass: &pass,
                probes: &run_probes(),
            },
        );
        (values, spans)
    });
    // After the layer pass, whose ops count as attempted too.
    let mut end_to_end = metrics::end_to_end(&run);
    end_to_end.insert(
        "peak_rss_mb",
        metrics::Value {
            value: peak_rss_mb()?,
            samples: 1,
        },
    );

    let trace_file = match &per_layer {
        Some((_, spans)) => {
            let doc = trace::to_chrome(spans, args.workload.name());
            trace::validate(&doc).map_err(|e| format!("span document is malformed: {e}"))?;
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("trace-{}.json", args.workload));
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            std::fs::write(&path, doc.render())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            Json::Str(format!("benchmark/out/trace-{}.json", args.workload))
        }
        None => Json::Null,
    };

    let ledger = &run.ledger;
    let mut reported: Vec<(&'static str, &'static str)> = END_TO_END.to_vec();
    reported.extend(DIAGNOSTICS);
    let mut layers: Vec<(&'static str, &'static str)> = PER_LAYER.to_vec();
    layers.extend(PER_FIGURE.map(|(name, _)| (name, "s")));
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Json::obj([
        ("schema", Json::from("wisync-benchmark/v1")),
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::Str(format!("0x{:X}", args.seed))),
        ("seconds", Json::U64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("build_profile", Json::from("release")),
        ("host_parallelism", Json::U64(host_parallelism as u64)),
        ("threads", Json::U64(run.threads as u64)),
        (
            "warmup_rounds",
            Json::U64(u64::from(args.workload != Workload::Figures)),
        ),
        ("rounds", Json::U64(run.rounds.len() as u64)),
        (
            "traced_rounds",
            Json::U64(run.rounds.iter().filter(|r| r.traced).count() as u64),
        ),
        ("wall_s", Json::F64(started.elapsed().as_secs_f64())),
        ("metrics", metrics_json(&end_to_end, &reported, true)),
        (
            "per_layer",
            per_layer
                .as_ref()
                .map_or(Json::Null, |(v, _)| metrics_json(v, &layers, true)),
        ),
        ("cases", Json::Arr(case_table(&run))),
        ("pause_divergences", Json::Arr(divergences(&run))),
        ("attempted", Json::U64(ledger.attempted)),
        ("failed", Json::U64(ledger.failed)),
        (
            "failures",
            Json::Arr(
                ledger
                    .failures
                    .iter()
                    .map(|(op, round, reason)| {
                        Json::obj([
                            ("op", Json::Str(op.clone())),
                            ("round", Json::U64(*round)),
                            ("reason", Json::Str(reason.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("trace_file", trace_file),
    ]);
    print!("{}", report.render());

    let correct = ledger.failed == 0;
    let metrics = match &per_layer {
        Some((layers, _)) => metrics_json(layers, &PER_LAYER, false),
        None => metrics_json(&end_to_end, &END_TO_END, false),
    };
    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(ledger.attempted)),
        ("failed", Json::U64(ledger.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", one_line(&summary));
    Ok(correct)
}

#[cfg(test)]
mod tests;
