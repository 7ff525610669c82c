//! Metric names, units, and how each is computed from a run's timed
//! rounds, spans, layer pass and probes.

use std::collections::BTreeMap;

use wisync_core::{Bucket, MachineStats};

use crate::probes::LayerPass;
use crate::run::{Op, Round, Run};
use crate::trace::{by_round, RoundSpans, Span};

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("round_s_p50", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
];

/// Reported beside the end-to-end metrics, without a bound.
pub const DIAGNOSTICS: [(&str, &str); 5] = [
    ("round_s_p90", "s"),
    ("op_ms_p90", "ms"),
    ("wall_round_s_p50", "s"),
    ("host_speed", "ratio"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. Every workload
/// measures every one of them.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("core.new_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.run_ns_per_event", "ns"),
    ("core.rmw_success_frac", "ratio"),
    ("core.cas_success_frac", "ratio"),
    ("core.afb_failures", "count"),
    ("core.pause_divergent_cases", "count"),
    ("workloads.load_ms", "ms"),
    ("workloads.check_ms", "ms"),
    ("isa.instructions", "count"),
    ("isa.minstr_per_s", "Minstr/s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.queue.push_pop_ns", "ns"),
    ("mem.loads", "count"),
    ("mem.stores", "count"),
    ("mem.rmws", "count"),
    ("mem.l1_hit_frac", "ratio"),
    ("mem.dir_transactions", "count"),
    ("mem.latency_mean_cycles", "cycles"),
    ("mem.access_ns.private_read", "ns"),
    ("mem.access_ns.shared_write", "ns"),
    ("wireless.data.transfers", "count"),
    ("wireless.data.collisions", "count"),
    ("wireless.data.tx_success_frac", "ratio"),
    ("wireless.data.utilization", "ratio"),
    ("wireless.data.retries_mean", "count"),
    ("wireless.data.latency_mean_cycles", "cycles"),
    ("wireless.data.mac_exhaustions", "count"),
    ("wireless.data.tx_ns", "ns"),
    ("wireless.tone.barriers", "count"),
    ("wireless.tone.active_cycles", "cycles"),
    ("wireless.tone.barrier_ns", "ns"),
    ("snap.snapshot_ms", "ms"),
    ("snap.restore_ms", "ms"),
    ("snap.bytes", "bytes"),
    ("snap.share", "ratio"),
    ("obs.state_overhead_frac", "ratio"),
    ("obs.sink_overhead_frac", "ratio"),
    ("obs.export_ms", "ms"),
    ("obs.trace_rows", "count"),
    ("attrib.compute_frac", "ratio"),
    ("attrib.mem_stall_frac", "ratio"),
    ("attrib.channel_wait_frac", "ratio"),
    ("attrib.mac_backoff_frac", "ratio"),
    ("attrib.barrier_wait_frac", "ratio"),
    ("attrib.idle_frac", "ratio"),
    ("sweep.busy_s", "s"),
    ("sweep.parallel_efficiency", "ratio"),
    ("sweep.slowest_job_s", "s"),
    ("telemetry.machine_runs", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer busy time of each figure's ops, in seconds, reported only
/// on the workloads that run ops of that figure: the metric and the
/// prefix of its ops' names.
pub const PER_FIGURE: [(&str, &str); 5] = [
    ("sweep.fig7_busy_s", "fig7/"),
    ("sweep.fig8_busy_s", "fig8/"),
    ("sweep.fig9_busy_s", "fig9/"),
    ("sweep.fig10_busy_s", "fig10/"),
    ("sweep.fig11_busy_s", "fig11/"),
];

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `percent`-th percentile, reported only when at least
/// ten samples lie beyond it.
pub fn tail(values: &[f64], percent: usize) -> Option<f64> {
    let n = values.len();
    let rank = (n * percent).div_ceil(100);
    if rank == 0 || n - rank < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A named metric value with the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

pub type Values = BTreeMap<&'static str, Value>;

fn put(values: &mut Values, name: &'static str, value: f64, samples: usize) {
    values.insert(name, Value { value, samples });
}

/// The end-to-end metrics and diagnostics of a run's untraced rounds
/// (`peak_rss_mb` is read by the caller at the end of the run). Every
/// host time is at the nominal host speed unless its name says `wall`.
pub fn end_to_end(run: &Run) -> Values {
    let mut values = Values::new();
    let untraced: Vec<&Round> = run.rounds.iter().filter(|r| !r.traced).collect();
    let times: Vec<f64> = untraced.iter().map(|r| r.time_s).collect();
    let n = times.len();
    put(&mut values, "round_s_p50", median(&times), n);
    if let Some(p90) = tail(&times, 90) {
        put(&mut values, "round_s_p90", p90, n);
    }
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    put(&mut values, "wall_round_s_p50", median(&walls), n);
    let ops: Vec<&Op> = untraced.iter().flat_map(|r| &r.ops).collect();
    let op_ms: Vec<f64> = ops.iter().map(|o| o.total_s * o.speed * 1e3).collect();
    if let Some(p90) = tail(&op_ms, 90) {
        put(&mut values, "op_ms_p90", p90, op_ms.len());
    }
    let speeds: Vec<f64> = ops.iter().map(|o| o.speed).collect();
    put(&mut values, "host_speed", median(&speeds), speeds.len());
    put(
        &mut values,
        "setup_s",
        median(&run.setup_s),
        run.setup_s.len(),
    );
    // Each op's median simulating time, over the ops whose simulated
    // core-cycles are known.
    let (mut cycles, mut sim_s) = (0.0, 0.0);
    for (i, c) in run.core_cycles.iter().enumerate() {
        if let Some(c) = c {
            let times: Vec<f64> = ops
                .iter()
                .filter(|o| o.case == i)
                .map(|o| o.sim_s * o.speed)
                .collect();
            cycles += c;
            sim_s += median(&times);
        }
    }
    put(
        &mut values,
        "sim_mcycles_per_s",
        ratio(cycles, sim_s) / 1e6,
        n,
    );
    let ledger = &run.ledger;
    put(
        &mut values,
        "failed_frac",
        ratio(ledger.failed as f64, ledger.attempted as f64),
        ledger.attempted as usize,
    );
    values
}

/// Everything the per-layer metrics draw on besides the timed rounds.
pub struct LayerInputs<'a> {
    pub spans: &'a [Span],
    pub pass: &'a LayerPass,
    /// Probe results by metric name.
    pub probes: &'a [(&'static str, f64)],
}

/// The rounds a layer's host time is taken from: the first of the timed
/// rounds, the plain layer-pass rounds and the full layer-pass rounds in
/// which the workload makes `span` calls.
fn source<'a>(rounds: &'a BTreeMap<u64, RoundSpans>, span: &str) -> Vec<&'a RoundSpans> {
    ["round", "layer.plain", "layer.full"]
        .into_iter()
        .map(|kind| {
            rounds
                .values()
                .filter(|r| r.kind == kind)
                .collect::<Vec<_>>()
        })
        .find(|rs| rs.iter().any(|r| r.self_ns.contains_key(span)))
        .unwrap_or_default()
}

fn self_ns(r: &RoundSpans, span: &str) -> f64 {
    r.self_ns.get(span).copied().unwrap_or(0) as f64
}

fn arg(r: &RoundSpans, key: &str) -> f64 {
    r.args.get(key).copied().unwrap_or(0) as f64
}

/// Median over `rounds` of `f`, with the sample count.
fn over(rounds: &[&RoundSpans], f: impl Fn(&RoundSpans) -> f64) -> (f64, usize) {
    let v: Vec<f64> = rounds.iter().map(|r| f(r)).collect();
    (median(&v), v.len())
}

pub fn per_layer(run: &Run, inputs: &LayerInputs) -> Values {
    let mut values = Values::new();
    let rounds = by_round(inputs.spans);
    let mut span_metric = |metric, span: &'static str, f: &dyn Fn(&RoundSpans) -> f64| {
        let (v, n) = over(&source(&rounds, span), f);
        put(&mut values, metric, v, n);
    };
    for (metric, span) in [
        ("core.new_ms", "core.new"),
        ("core.run_ms", "core.run"),
        ("workloads.load_ms", "workloads.load"),
        ("workloads.check_ms", "workloads.check"),
        ("snap.snapshot_ms", "snap.snapshot"),
        ("snap.restore_ms", "snap.restore"),
        ("obs.export_ms", "obs.export"),
    ] {
        span_metric(metric, span, &|r| self_ns(r, span) / 1e6);
    }
    // The `core.run` spans carry the simulated work they covered.
    let run_s = |r: &RoundSpans| self_ns(r, "core.run") / 1e9;
    span_metric("core.run_ns_per_event", "core.run", &|r| {
        ratio(self_ns(r, "core.run"), arg(r, "sim_events"))
    });
    span_metric("sim.events_per_s", "core.run", &|r| {
        ratio(arg(r, "sim_events"), run_s(r))
    });
    span_metric("isa.minstr_per_s", "core.run", &|r| {
        ratio(arg(r, "instructions"), run_s(r)) / 1e6
    });
    span_metric("snap.share", "snap.snapshot", &|r| {
        ratio(
            self_ns(r, "snap.snapshot") + self_ns(r, "snap.restore"),
            r.wall_ns as f64 - self_ns(r, "host.reference"),
        )
    });
    span_metric("snap.bytes", "snap.snapshot", &|r| arg(r, "bytes"));
    span_metric("obs.trace_rows", "obs.export", &|r| arg(r, "rows"));

    // The obs cost split, from the layer pass's interleaved variants.
    let variant = |kind: &str, f: &dyn Fn(&RoundSpans) -> f64| {
        let rs: Vec<&RoundSpans> = rounds.values().filter(|r| r.kind == kind).collect();
        over(&rs, f)
    };
    let (plain, n) = variant("layer.plain", &|r| self_ns(r, "core.run"));
    let (state, _) = variant("layer.state", &|r| self_ns(r, "core.run"));
    let (full, _) = variant("layer.full", &|r| {
        self_ns(r, "core.run") + self_ns(r, "obs.export")
    });
    put(
        &mut values,
        "obs.state_overhead_frac",
        ratio(state, plain) - 1.0,
        n,
    );
    put(
        &mut values,
        "obs.sink_overhead_frac",
        ratio(full, state) - 1.0,
        n,
    );

    simulated_counts(&mut values, inputs.pass);
    for &(name, v) in inputs.probes {
        put(&mut values, name, v, 1);
    }
    sweep(&mut values, run);
    values
}

/// Counts of simulated work, from the layer pass's plain runs. Each
/// round's simulated work is deterministic.
fn simulated_counts(values: &mut Values, pass: &LayerPass) {
    let sum = |f: &dyn Fn(&MachineStats) -> u64| -> f64 {
        pass.plain.iter().map(|(_, run)| f(&run.stats)).sum::<u64>() as f64
    };
    let mut count = |name, value| put(values, name, value, 1);
    count("sim.events", sum(&|s| s.sim_events));
    count("isa.instructions", sum(&|s| s.instructions));
    count(
        "core.rmw_success_frac",
        ratio(sum(&|s| s.rmw_successes), sum(&|s| s.rmw_attempts)),
    );
    count(
        "core.cas_success_frac",
        ratio(sum(&|s| s.cas_successes), sum(&|s| s.cas_attempts)),
    );
    count("core.afb_failures", sum(&|s| s.bm_rmw_atomicity_failures));
    count("core.pause_divergent_cases", pass.divergent as f64);

    let accesses = sum(&|s| s.mem.loads + s.mem.stores + s.mem.rmws);
    count("mem.loads", sum(&|s| s.mem.loads));
    count("mem.stores", sum(&|s| s.mem.stores));
    count("mem.rmws", sum(&|s| s.mem.rmws));
    count("mem.l1_hit_frac", ratio(sum(&|s| s.mem.l1_hits), accesses));
    count("mem.dir_transactions", sum(&|s| s.mem.dir_transactions));
    count(
        "mem.latency_mean_cycles",
        ratio(
            sum(&|s| s.mem.latency.sum()),
            sum(&|s| s.mem.latency.count()),
        ),
    );

    let transfers = sum(&|s| s.data.transfers);
    let retries = sum(&|s| s.data.retries.sum());
    count("wireless.data.transfers", transfers);
    count("wireless.data.collisions", sum(&|s| s.data.collisions));
    count(
        "wireless.data.tx_success_frac",
        ratio(transfers, transfers + retries),
    );
    let (busy, cycles) = pass
        .plain
        .iter()
        .filter(|(case, _)| case.kind.has_bm())
        .fold((0, 0), |(b, c), (_, f)| {
            (b + f.stats.data.busy_cycles, c + f.cycles)
        });
    count(
        "wireless.data.utilization",
        ratio(busy as f64, cycles as f64),
    );
    count(
        "wireless.data.retries_mean",
        ratio(retries, sum(&|s| s.data.retries.count())),
    );
    count(
        "wireless.data.latency_mean_cycles",
        ratio(
            sum(&|s| s.data.latency.sum()),
            sum(&|s| s.data.latency.count()),
        ),
    );
    count(
        "wireless.data.mac_exhaustions",
        sum(&|s| s.data.mac_exhaustions),
    );
    count(
        "wireless.tone.barriers",
        sum(&|s| s.tone.barriers_completed),
    );
    count(
        "wireless.tone.active_cycles",
        sum(&|s| s.tone.active_cycles),
    );

    let total: u64 = pass.attribution.iter().sum();
    for (bucket, cycles) in Bucket::ALL.iter().zip(pass.attribution) {
        let name = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == format!("attrib.{}_frac", bucket.label()))
            .expect("every bucket has a metric");
        count(name, ratio(cycles as f64, total as f64));
    }
}

/// The timed rounds seen as a sweep of their ops over the run's
/// workers, from the traced rounds, and the tracing overhead.
fn sweep(values: &mut Values, run: &Run) {
    let traced: Vec<&Round> = run.rounds.iter().filter(|r| r.traced).collect();
    let t = traced.len();
    let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let busy = |r: &Round| r.ops.iter().map(|o| o.total_s).sum::<f64>();
    put(values, "sweep.busy_s", per_round(&busy), t);
    // The workers' time, without the reference kernels they ran.
    let worker_s = |r: &Round| {
        r.wall_s * run.threads as f64 - r.ops.iter().map(|o| o.reference_s).sum::<f64>()
    };
    let efficiency = per_round(&|r| ratio(busy(r), worker_s(r)));
    put(values, "sweep.parallel_efficiency", efficiency, t);
    let slowest = per_round(&|r| r.ops.iter().map(|o| o.total_s).fold(0.0, f64::max));
    put(values, "sweep.slowest_job_s", slowest, t);
    for (metric, prefix) in PER_FIGURE {
        if run.labels.iter().any(|l| l.starts_with(prefix)) {
            let figure_busy = per_round(&|r| {
                r.ops
                    .iter()
                    .filter(|o| run.labels[o.case].starts_with(prefix))
                    .map(|o| o.total_s)
                    .sum()
            });
            put(values, metric, figure_busy, t);
        }
    }
    let runs: Vec<f64> = traced.iter().map(|r| r.machine_runs as f64).collect();
    put(values, "telemetry.machine_runs", median(&runs), t);
    let times = |traced: bool| -> Vec<f64> {
        run.rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.time_s)
            .collect()
    };
    put(
        values,
        "trace.overhead_frac",
        ratio(median(&times(true)), median(&times(false))) - 1.0,
        t,
    );
}
