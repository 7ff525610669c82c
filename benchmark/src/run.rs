//! Timed ops and their oracles. On a machine workload an op is one case
//! run (build, load, run, check); on `figures` a round regenerates the
//! whole committed grid and each rendered figure document is an op.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wisync_bench::grid;
use wisync_core::{ChromeTrace, Machine, MachineStats, ObsConfig, RunOutcome, RunReport};
use wisync_testkit::{run_sweep_indexed, Json, SweepJob};

use crate::cases::{Case, Workload, DEFAULT_SEED, GRID_CORES};
use crate::speed::Reference;
use crate::trace::{Scope, Tracer};

/// Cycle budget of every run; a run that reaches it is a failure.
const BUDGET: u64 = wisync_bench::BUDGET;

/// Sweep workers for `figures`: the CPU count of the 2-CPU host the
/// baselines were measured on, fixed so the workload does not change
/// with the host.
pub const SWEEP_THREADS: usize = 2;

/// The committed figures' base seed.
pub const SWEEP_SEED: u64 = 0xC0DE;

/// Failures listed individually in the report; the rest are counted.
const MAX_LISTED: usize = 50;

/// How much of obs a run installs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Obs {
    Off,
    /// `ObsConfig::default()` without a trace sink.
    State,
    /// Observability plus an unbounded `ChromeTrace` sink, exported at
    /// the end — what `report --trace` pays.
    StateAndSink,
}

/// What one run does besides loading and running its case.
#[derive(Clone, Copy, Debug)]
pub struct Plan<'a> {
    pub obs: Obs,
    /// Absolute cycles at which the run pauses before continuing.
    pub cuts: &'a [u64],
    /// Snapshot at every cut and continue on the restored machine.
    pub snapshot: bool,
}

impl Plan<'static> {
    pub const PLAIN: Plan<'static> = Plan {
        obs: Obs::Off,
        cuts: &[],
        snapshot: false,
    };
    pub const OBSERVED: Plan<'static> = Plan {
        obs: Obs::StateAndSink,
        cuts: &[],
        snapshot: false,
    };
}

/// Host seconds one op spent in each layer it called.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTimes {
    pub new: f64,
    pub load: f64,
    pub run: f64,
    pub check: f64,
    pub snapshot: f64,
    pub restore: f64,
    pub export: f64,
}

impl OpTimes {
    pub fn setup(&self) -> f64 {
        self.new + self.load
    }
}

/// The observable result of one completed case run.
#[derive(Clone, Debug)]
pub struct Finished {
    pub cycles: u64,
    /// Digest of the cycles and the `Debug` of the final `MachineStats`
    /// (which includes `sim_events`).
    pub fingerprint: u128,
    pub stats: MachineStats,
    /// Outcome plus the workload's own check.
    pub verdict: Result<(), String>,
    /// Simulated cycles per attribution bucket, when obs was on.
    pub attribution: Option<[u64; wisync_core::Bucket::ALL.len()]>,
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

const COUNTERS: [&str; 6] = [
    "cycles",
    "sim_events",
    "instructions",
    "mem_accesses",
    "data_transfers",
    "tone_barriers",
];

fn counters(m: &Machine) -> [u64; 6] {
    let s = m.stats();
    [
        m.now().as_u64(),
        s.sim_events,
        s.instructions,
        s.mem.loads + s.mem.stores + s.mem.rmws,
        s.data.transfers,
        s.tone.barriers_completed,
    ]
}

fn run_segment(m: &mut Machine, deadline: u64, scope: Scope, times: &mut OpTimes) -> RunReport {
    let before = scope.enabled().then(|| counters(m));
    let start = Instant::now();
    let report = m.run(deadline);
    let end = Instant::now();
    times.run += secs(start, end);
    if let Some(before) = before {
        let after = counters(m);
        let args = (0..COUNTERS.len())
            .map(|i| (COUNTERS[i], after[i] - before[i]))
            .collect();
        scope.leaf("core.run", start, end, args);
    }
    report
}

/// Snapshots `m` and returns the machine restored from the bytes, with
/// the trace sink (host state a snapshot does not carry) moved over.
fn checkpoint(mut m: Machine, scope: Scope, times: &mut OpTimes) -> Result<Machine, String> {
    let start = Instant::now();
    let bytes = m.snapshot();
    let taken = Instant::now();
    scope.leaf(
        "snap.snapshot",
        start,
        taken,
        vec![("bytes", bytes.len() as u64)],
    );
    let sink = m.take_trace_sink();
    let cycle = m.now().as_u64();
    // At most one machine is alive at a time, as when restoring from a
    // file.
    drop(m);
    let mut restored =
        Machine::restore(&bytes).map_err(|e| format!("restore at cycle {cycle}: {e}"))?;
    if let Some(sink) = sink {
        restored.set_trace_sink(sink);
    }
    let done = Instant::now();
    scope.leaf("snap.restore", taken, done, Vec::new());
    times.snapshot += secs(start, taken);
    times.restore += secs(taken, done);
    Ok(restored)
}

/// Builds, loads, runs (pausing per `plan`) and checks one case.
pub fn execute(
    case: &Case,
    seed: u64,
    plan: Plan,
    scope: Scope,
    times: &mut OpTimes,
) -> Result<Finished, String> {
    let start = Instant::now();
    let mut m = Machine::new(case.config(seed));
    let built = Instant::now();
    scope.leaf("core.new", start, built, Vec::new());
    if plan.obs != Obs::Off {
        m.enable_observability(ObsConfig::default());
    }
    if plan.obs == Obs::StateAndSink {
        m.set_trace_sink(Box::new(ChromeTrace::unbounded()));
    }
    let checker = case.load(&mut m, seed);
    let loaded = Instant::now();
    scope.leaf("workloads.load", built, loaded, Vec::new());
    times.new += secs(start, built);
    times.load += secs(built, loaded);

    for &cut in plan.cuts {
        run_segment(&mut m, cut, scope, times);
        if plan.snapshot {
            m = checkpoint(m, scope, times)?;
        }
    }
    let report = run_segment(&mut m, BUDGET, scope, times);

    let start = Instant::now();
    let verdict = match report.outcome {
        RunOutcome::Completed => checker.check(&m).map_err(|e| format!("check: {e}")),
        other => Err(format!("run ended {other:?}")),
    };
    let end = Instant::now();
    scope.leaf("workloads.check", start, end, Vec::new());
    times.check += secs(start, end);

    // The export stops at the finished sink: building and rendering the
    // Chrome JSON document of these traces is a JSON-serialization cost
    // that would dwarf obs and snapshot/restore (see README).
    if let Some(mut sink) = m.take_trace_sink() {
        let start = Instant::now();
        let obs = m
            .observability()
            .expect("a sink is only installed with observability");
        let chrome = sink.as_chrome_mut().expect("the sink is a ChromeTrace");
        chrome.push_counters(&obs.timeline);
        chrome.push_episodes(&obs.episodes);
        let rows = chrome.len() as u64;
        let end = Instant::now();
        scope.leaf("obs.export", start, end, vec![("rows", rows)]);
        times.export += secs(start, end);
    }

    let cycles = report.cycles.as_u64();
    let stats = m.stats().clone();
    let fingerprint = wisync_sim::snap::digest128(format!("{cycles}|{stats:?}").as_bytes());
    Ok(Finished {
        cycles,
        fingerprint,
        stats,
        verdict,
        attribution: m.observability().map(|o| o.attrib.totals()),
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`execute`] with panics turned into errors.
pub fn guarded(
    case: &Case,
    seed: u64,
    plan: Plan,
    scope: Scope,
    times: &mut OpTimes,
) -> Result<Finished, String> {
    catch_unwind(AssertUnwindSafe(|| execute(case, seed, plan, scope, times)))
        .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(p))))
}

/// Every reason a finished op fails its oracles: outcome and workload
/// check, the committed figure value (bit for bit, only when
/// `expected` is given), and the reference fingerprint.
pub fn judge(
    case: &Case,
    result: &Result<Finished, String>,
    expected: Option<f64>,
    reference: Option<u128>,
) -> Vec<String> {
    let f = match result {
        Ok(f) => f,
        Err(e) => return vec![e.clone()],
    };
    let mut problems = Vec::new();
    if let Err(e) = &f.verdict {
        problems.push(e.clone());
    }
    if let Some(want) = expected {
        let got = case.quantity(f.cycles, &f.stats);
        if got.to_bits() != want.to_bits() {
            problems.push(format!("figure value {got:?}, committed {want:?}"));
        }
    }
    if reference.is_some_and(|r| r != f.fingerprint) {
        problems.push("fingerprint differs from the reference run".to_string());
    }
    problems
}

/// Attempted and failed ops, with the first failures listed.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<(String, u64, String)>,
}

impl Ledger {
    pub fn record(&mut self, op: &str, round: u64, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failures.len() < MAX_LISTED {
                self.failures
                    .push((op.to_string(), round, problems.join("; ")));
            }
        }
    }
}

/// One timed op: which case (or sweep job), its wall time, the part of
/// it that simulated, and its per-layer times.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub case: usize,
    pub total_s: f64,
    /// Host seconds that simulated the op's cycles: its `Machine::run`
    /// segments, or a whole sweep job.
    pub sim_s: f64,
    pub times: OpTimes,
    /// The host speed measured just before the op (on `figures`, over
    /// its round): its times multiplied by this are times at the nominal
    /// speed (see [`crate::speed`]).
    pub speed: f64,
    /// Wall seconds of the reference kernel run that measured `speed`.
    pub reference_s: f64,
}

/// One timed round.
#[derive(Clone, Debug)]
pub struct Round {
    pub traced: bool,
    /// Wall time, reference kernels included.
    pub wall_s: f64,
    /// The round's time at the nominal host speed: its ops' scaled
    /// times, or on `figures` its wall time less the kernels, scaled by
    /// the busy-weighted speed of its jobs.
    pub time_s: f64,
    pub ops: Vec<Op>,
    /// `Machine::run` calls the round made (process-wide telemetry).
    pub machine_runs: u64,
}

/// A case with what its warm-up established.
#[derive(Clone, Debug)]
pub struct CaseState {
    pub case: Case,
    pub name: String,
    /// The committed figure value, checked only at the default seed.
    pub expected: Option<f64>,
    /// Pause points of `observed_checkpoint` ops (see [`quarter_cuts`]).
    pub cuts: Vec<u64>,
    /// The uninterrupted warm-up run.
    pub uninterrupted: Option<Finished>,
    /// What every timed op must reproduce: the uninterrupted run, or for
    /// `observed_checkpoint` the run paused at the same cuts without a
    /// snapshot.
    pub reference: Option<Finished>,
}

impl CaseState {
    pub fn new(case: Case, committed: f64, seed: u64) -> Self {
        CaseState {
            name: case.name(),
            case,
            expected: (seed == DEFAULT_SEED).then_some(committed),
            cuts: Vec::new(),
            uninterrupted: None,
            reference: None,
        }
    }

    /// Whether pausing alone moved the result away from the
    /// uninterrupted run.
    pub fn pause_diverges(&self) -> bool {
        match (&self.uninterrupted, &self.reference) {
            (Some(u), Some(r)) => u.fingerprint != r.fingerprint,
            _ => false,
        }
    }
}

/// Where a checkpointed run pauses: ¼, ½ and ¾ of the uninterrupted
/// run's cycles.
pub fn quarter_cuts(cycles: u64) -> Vec<u64> {
    vec![cycles / 4, cycles / 2, 3 * cycles / 4]
}

/// A workload's timed rounds and what the end-to-end metrics need
/// besides them.
pub struct Run {
    /// What an op's `case` indexes: case names, or sweep job names on
    /// `figures`.
    pub labels: Vec<String>,
    /// Simulated core-cycles (cycles × cores) of each label's op, where
    /// the run knows them.
    pub core_cycles: Vec<Option<f64>>,
    /// Set-up seconds at the nominal host speed: one sample per untraced
    /// round, or per set-up repetition on `figures`.
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
    pub ledger: Ledger,
    /// Workers a round's ops run on.
    pub threads: usize,
    /// The machine workloads' cases (empty on `figures`).
    pub cases: Vec<CaseState>,
}

/// Whether timed rounds stop: another round as long as the last would
/// end after `seconds`, and, in a traced run (every other round records
/// spans), one round of each kind ran.
fn finished(rounds: &[Round], start: Instant, seconds: f64, trace: bool) -> bool {
    let both = rounds.iter().any(|r| r.traced) && rounds.iter().any(|r| !r.traced);
    let last = rounds.last().map_or(0.0, |r| r.wall_s);
    (both || !trace) && start.elapsed().as_secs_f64() + last > seconds
}

/// Runs the untimed warm-up round, then timed rounds until
/// [`finished`].
pub fn run_machine(
    workload: Workload,
    mut cases: Vec<CaseState>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tracer: &Tracer,
) -> Run {
    let checkpoint = workload == Workload::ObservedCheckpoint;
    let mut ledger = Ledger::default();
    for state in &mut cases {
        warm_up(state, seed, checkpoint, tracer, &mut ledger);
    }
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    for round in 1u64.. {
        let traced = trace && round % 2 == 0;
        rounds.push(machine_round(
            &cases,
            seed,
            checkpoint,
            round,
            traced,
            tracer,
            &mut ledger,
        ));
        if finished(&rounds, start, seconds, trace) {
            break;
        }
    }
    let setup_s = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.ops.iter().map(|o| o.times.setup() * o.speed).sum())
        .collect();
    Run {
        labels: cases.iter().map(|c| c.name.clone()).collect(),
        core_cycles: cases
            .iter()
            .map(|c| {
                let cycles = c.reference.as_ref()?.cycles;
                Some((cycles * c.case.cores as u64) as f64)
            })
            .collect(),
        setup_s,
        rounds,
        ledger,
        threads: 1,
        cases,
    }
}

/// Runs a case's untimed warm-up and records what timed ops must
/// reproduce.
pub fn warm_up(
    state: &mut CaseState,
    seed: u64,
    checkpoint: bool,
    tracer: &Tracer,
    ledger: &mut Ledger,
) {
    let scope = Scope::round(tracer, 0);
    let mut times = OpTimes::default();
    let plan = if checkpoint {
        Plan::OBSERVED
    } else {
        Plan::PLAIN
    };
    let uninterrupted = guarded(&state.case, seed, plan, scope, &mut times);
    ledger.record(
        &state.name,
        0,
        judge(&state.case, &uninterrupted, state.expected, None),
    );
    let Ok(uninterrupted) = uninterrupted else {
        return;
    };
    state.reference = Some(uninterrupted.clone());
    if checkpoint {
        state.cuts = quarter_cuts(uninterrupted.cycles);
        state.reference =
            paused_reference(&state.case, &state.name, seed, &state.cuts, scope, ledger);
    }
    state.uninterrupted = Some(uninterrupted);
}

/// The observed run paused at `cuts` without a snapshot: what a
/// checkpointed run must reproduce, since `Machine::restore` promises
/// the continuation of the machine it was taken from. The op counts as
/// attempted in round 0.
pub fn paused_reference(
    case: &Case,
    name: &str,
    seed: u64,
    cuts: &[u64],
    scope: Scope,
    ledger: &mut Ledger,
) -> Option<Finished> {
    let plan = Plan {
        obs: Obs::StateAndSink,
        cuts,
        snapshot: false,
    };
    let paused = guarded(case, seed, plan, scope, &mut OpTimes::default());
    ledger.record(name, 0, judge(case, &paused, None, None));
    paused.ok()
}

fn machine_round(
    cases: &[CaseState],
    seed: u64,
    checkpoint: bool,
    round: u64,
    traced: bool,
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> Round {
    tracer.set_enabled(traced);
    let runs_before = wisync_core::telemetry::snapshot().runs;
    let round_scope = Scope::round(tracer, round);
    let round_start = Instant::now();
    let mut ops = Vec::with_capacity(cases.len());
    for (i, state) in cases.iter().enumerate() {
        let host = Reference::run();
        round_scope.leaf("host.reference", host.start, host.end, Vec::new());
        let scope = round_scope.child(&state.name);
        let plan = if checkpoint {
            Plan {
                obs: Obs::StateAndSink,
                cuts: &state.cuts,
                snapshot: true,
            }
        } else {
            Plan::PLAIN
        };
        let mut times = OpTimes::default();
        let start = Instant::now();
        let result = guarded(&state.case, seed, plan, scope, &mut times);
        let end = Instant::now();
        scope.close("case", start, end);
        // The committed value is checked on the uninterrupted run only:
        // a paused run may legitimately differ from it (see README).
        let expected = state.expected.filter(|_| !checkpoint);
        let reference = state.reference.as_ref().map(|r| r.fingerprint);
        ledger.record(
            &state.name,
            round,
            judge(&state.case, &result, expected, reference),
        );
        ops.push(Op {
            case: i,
            total_s: secs(start, end),
            sim_s: times.run,
            times,
            speed: host.speed(),
            reference_s: host.took(),
        });
    }
    let round_end = Instant::now();
    round_scope.close("round", round_start, round_end);
    tracer.set_enabled(false);
    Round {
        traced,
        wall_s: secs(round_start, round_end),
        time_s: ops.iter().map(|o| o.total_s * o.speed).sum(),
        ops,
        machine_runs: wisync_core::telemetry::snapshot().runs - runs_before,
    }
}

/// Set-ups before each `figures` round, each timed just after its own
/// reference kernel run.
const SETUP_REPS: usize = 21;

/// The committed figure documents by name, as bytes, and the set-up
/// work a regeneration needs before its first job (building the grid,
/// parsing the committed documents).
pub fn figures_setup(results: &Path) -> Result<BTreeMap<String, String>, String> {
    let jobs = grid::build_jobs(false);
    std::hint::black_box(jobs.len());
    let mut docs = BTreeMap::new();
    for name in grid::figure_names(false) {
        let path = results.join(format!("{name}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        docs.insert(name, text);
    }
    Ok(docs)
}

pub fn run_figures(
    results: &Path,
    seconds: f64,
    trace: bool,
    tracer: &Arc<Tracer>,
) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut committed = BTreeMap::new();
    let labels: Vec<String> = grid::build_jobs(false)
        .into_iter()
        .map(|j| j.name)
        .collect();
    let mut ledger = Ledger::default();
    let mut core_cycles = vec![None; labels.len()];
    let mut rounds = Vec::new();
    // No warm-up round: the oracle is the committed bytes, and a round
    // takes a quarter to a half of the default run.
    let start = Instant::now();
    for round in 1u64.. {
        for _ in 0..SETUP_REPS {
            let reference = Reference::run();
            let start = Instant::now();
            committed = figures_setup(results)?;
            setup_s.push(start.elapsed().as_secs_f64() * reference.speed());
        }
        let traced = trace && round % 2 == 0;
        let (r, cycles) = figures_round(&committed, round, traced, tracer, &mut ledger);
        if let Some(cycles) = cycles {
            core_cycles = cycles;
        }
        rounds.push(r);
        if finished(&rounds, start, seconds, trace) {
            break;
        }
    }
    Ok(Run {
        labels,
        core_cycles,
        setup_s,
        rounds,
        ledger,
        threads: SWEEP_THREADS,
        cases: Vec::new(),
    })
}

/// Each grid job's reference kernel run and own time, by job index, as
/// its worker measured them.
type JobTimes = Arc<Mutex<Vec<Option<(Reference, f64)>>>>;

/// Wraps grid job `index` so that, on the worker thread it runs on, it
/// runs the reference kernel, times itself into `times`, and (while the
/// tracer is on) records both as spans under the round span `parent`.
fn measured_job(
    job: SweepJob,
    index: usize,
    times: JobTimes,
    tracer: Arc<Tracer>,
    round: u64,
    parent: u64,
) -> SweepJob {
    let name = job.name.clone();
    let run = job.run;
    SweepJob::new(job.name, move |rng| {
        let reference = Reference::run();
        let start = Instant::now();
        let value = run(rng);
        let end = Instant::now();
        times.lock().expect("job times poisoned")[index] = Some((reference, secs(start, end)));
        let round = Scope {
            tracer: &tracer,
            round,
            case: &name,
            id: parent,
            parent: 0,
        };
        round.leaf("host.reference", reference.start, reference.end, Vec::new());
        round.leaf("sweep.job", start, end, Vec::new());
        value
    })
}

/// Simulated core-cycles of a fig8 or fig10 job's row, whose `cycles`
/// column holds one exact count per machine kind.
fn job_core_cycles(name: &str, value: &Json) -> Option<f64> {
    if !(name.starts_with("fig8/") || name.starts_with("fig10/")) {
        return None;
    }
    let Some(Json::Arr(cycles)) = value.get("cycles") else {
        return None;
    };
    let total = cycles.iter().try_fold(0u64, |sum, c| match c {
        Json::U64(c) => Some(sum + c),
        _ => None,
    })?;
    Some((total * GRID_CORES as u64) as f64)
}

/// One full regeneration: every grid job on the sweep pool, table5
/// derived, every document rendered and byte-compared with its
/// committed copy. Also returns each job's simulated core-cycles.
fn figures_round(
    committed: &BTreeMap<String, String>,
    round: u64,
    traced: bool,
    tracer: &Arc<Tracer>,
    ledger: &mut Ledger,
) -> (Round, Option<Vec<Option<f64>>>) {
    tracer.set_enabled(traced);
    let runs_before = wisync_core::telemetry::snapshot().runs;
    let scope = Scope::round(tracer, round);
    let times: JobTimes = Arc::default();
    let start = Instant::now();
    let regenerated = catch_unwind(AssertUnwindSafe(|| {
        let built = grid::build_jobs(false);
        *times.lock().expect("job times poisoned") = vec![None; built.len()];
        let jobs: Vec<(u64, SweepJob)> = built
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                let job = measured_job(
                    job,
                    i,
                    Arc::clone(&times),
                    Arc::clone(tracer),
                    round,
                    scope.id,
                );
                (i as u64, job)
            })
            .collect();
        let results = run_sweep_indexed(jobs, SWEEP_THREADS, SWEEP_SEED);
        let cycles = results
            .iter()
            .map(|(name, value, _)| job_core_cycles(name, value))
            .collect();
        let mut by_figure = grid::group_rows(
            results
                .into_iter()
                .enumerate()
                .map(|(i, (name, value, _))| (i as u64, name, value)),
            SWEEP_SEED,
        );
        if let Some(fig10) = by_figure.get("fig10") {
            let table5 = grid::derive_table5(fig10);
            by_figure.insert("table5".to_string(), table5);
        }
        let docs: BTreeMap<String, String> = by_figure
            .into_iter()
            .map(|(figure, rows)| {
                let doc = grid::figure_report(&figure, SWEEP_SEED, false, rows).render();
                (figure, doc)
            })
            .collect();
        (docs, cycles)
    }));
    let end = Instant::now();
    scope.close("round", start, end);
    tracer.set_enabled(false);
    let cycles = match regenerated {
        Ok((docs, cycles)) => {
            for (name, want) in committed {
                let problems = match docs.get(name) {
                    Some(got) if got == want => Vec::new(),
                    Some(_) => {
                        vec!["rendered document differs from the committed bytes".to_string()]
                    }
                    None => vec!["document was not regenerated".to_string()],
                };
                ledger.record(name, round, problems);
            }
            Some(cycles)
        }
        Err(p) => {
            let reason = format!("panic: {}", panic_message(p));
            for name in committed.keys() {
                ledger.record(name, round, vec![reason.clone()]);
            }
            None
        }
    };
    let times = std::mem::take(&mut *times.lock().expect("job times poisoned"));
    let mut ops: Vec<Op> = times
        .into_iter()
        .enumerate()
        .filter_map(|(i, t)| {
            let (reference, took) = t?;
            Some(Op {
                case: i,
                total_s: took,
                sim_s: took,
                times: OpTimes::default(),
                speed: reference.speed(),
                reference_s: reference.took(),
            })
        })
        .collect();
    // One factor for the whole round, weighted by busy time: a single
    // 2 ms kernel run is a noisy measure of the speed over a job on a
    // two-worker host, and averaging over the round's jobs steadied
    // `sim_mcycles_per_s` here (quartile spread over ten runs 5.8% with
    // each job's own factor, 4.2% with the round's).
    let busy: f64 = ops.iter().map(|o| o.total_s).sum();
    let scaled_busy: f64 = ops.iter().map(|o| o.total_s * o.speed).sum();
    let speed = scaled_busy / busy.max(f64::MIN_POSITIVE);
    for op in &mut ops {
        op.speed = speed;
    }
    let wall_s = secs(start, end);
    // The kernels ran on the workers, inside the round.
    let kernels_s: f64 = ops.iter().map(|o| o.reference_s).sum();
    let regeneration_s = wall_s - kernels_s / SWEEP_THREADS as f64;
    let round = Round {
        traced,
        wall_s,
        time_s: regeneration_s * speed,
        ops,
        machine_runs: wisync_core::telemetry::snapshot().runs - runs_before,
    };
    (round, cycles)
}
