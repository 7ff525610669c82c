//! What a traced run adds after its timed rounds: the layer pass, which
//! runs the workload's cases without obs, with obs state only, and with
//! obs, a trace sink and checkpoints, and the probes, which time single
//! layers' public functions in isolation.

use std::hint::black_box;
use std::time::Instant;

use wisync_core::Bucket;
use wisync_mem::{MemConfig, MemOp, MemSystem};
use wisync_noc::{Mesh, NodeId, NodeSet};
use wisync_sim::{Cycle, DetRng, EventQueue};
use wisync_wireless::{DataChannel, Resolution, ToneChannel, TxLen, WirelessConfig};

use crate::cases::Case;
use crate::metrics::median;
use crate::run::{
    guarded, judge, paused_reference, quarter_cuts, Finished, Ledger, Obs, OpTimes, Plan,
};
use crate::trace::{Scope, Tracer};

/// Repetitions per probe; the median is reported.
const REPS: usize = 5;

/// Median host nanoseconds per operation of `body`, which returns the
/// number of operations it performed.
fn ns_per_op(mut body: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let ops = body();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// One event-latency draw from the machine's dominant distribution:
/// mostly short memory/wireless round-trips, occasionally a backoff.
fn latency_draw(rng: &mut DetRng) -> u64 {
    if rng.gen_range(16) == 0 {
        1 + rng.gen_range(1024)
    } else {
        2 + rng.gen_range(108)
    }
}

/// `sim.queue.push_pop_ns`: one pop plus one push on a steady-state
/// wheel of 4096 in-flight events.
pub fn queue_push_pop_ns() -> f64 {
    const OPS: u64 = 200_000;
    ns_per_op(|| {
        let mut q = EventQueue::new();
        let mut rng = DetRng::new(11);
        for i in 0..4096u64 {
            q.push(Cycle(latency_draw(&mut rng)), i);
        }
        for i in 0..OPS {
            let (at, e) = q.pop().expect("steady-state queue never empties");
            black_box(e);
            q.push(at + latency_draw(&mut rng), i);
        }
        OPS
    })
}

/// `mem.access_ns.private_read`: each of 64 cores re-reads its own
/// lines, which hit in its L1 after the first pass.
pub fn mem_private_read_ns() -> f64 {
    const OPS: u64 = 200_000;
    ns_per_op(|| {
        let mut mem = MemSystem::new(MemConfig::default(), Mesh::new(64, 4));
        let mut t = Cycle::ZERO;
        for i in 0..OPS {
            let core = (i % 64) as usize;
            let addr = (core as u64 * 8 + (i / 64) % 8) * 64;
            t = mem.access(NodeId(core), addr, MemOp::Load, t).complete_at;
        }
        black_box(t);
        OPS
    })
}

/// `mem.access_ns.shared_write`: 64 cores take turns storing to one
/// line, so every access moves ownership through the directory.
pub fn mem_shared_write_ns() -> f64 {
    const OPS: u64 = 50_000;
    ns_per_op(|| {
        let mut mem = MemSystem::new(MemConfig::default(), Mesh::new(64, 4));
        let mut t = Cycle::ZERO;
        for i in 0..OPS {
            let core = NodeId((i % 64) as usize);
            t = mem.access(core, 4096, MemOp::Store(i), t).complete_at;
        }
        black_box(t);
        OPS
    })
}

/// `wireless.data.tx_ns`: request plus every resolve a frame needs, per
/// delivered frame. Each burst is what a barrier arrival makes: all 64
/// nodes request one frame in the same cycle, and the burst drains
/// before the next one starts.
pub fn data_tx_ns() -> f64 {
    const BURSTS: u64 = 50;
    ns_per_op(|| {
        let mut ch: DataChannel<u64> = DataChannel::new(WirelessConfig::default(), 64);
        let mut q: EventQueue<()> = EventQueue::new();
        let mut now = Cycle::ZERO;
        let mut delivered = 0u64;
        for burst in 0..BURSTS {
            for node in 0..64 {
                let (_, s) = ch.request(NodeId(node), TxLen::Normal, burst, now);
                q.push(s, ());
            }
            while let Some((slot, ())) = q.pop() {
                now = slot;
                match ch.resolve(slot) {
                    Resolution::Idle => {}
                    Resolution::Started { retry_slots, .. } => {
                        delivered += 1;
                        for s in retry_slots {
                            q.push(s, ());
                        }
                    }
                    Resolution::Deferred(next)
                    | Resolution::Collision {
                        retry_slots: next, ..
                    } => {
                        for s in next {
                            q.push(s, ());
                        }
                    }
                }
            }
        }
        delivered
    })
}

/// `wireless.tone.barrier_ns`: one 64-participant tone barrier episode
/// (activate, 64 arrivals, completion slot, complete).
pub fn tone_barrier_ns() -> f64 {
    const OPS: u64 = 20_000;
    ns_per_op(|| {
        let mut tone = ToneChannel::new(16);
        tone.allocate(8, NodeSet::first_n(64))
            .expect("empty table has room");
        let mut now = Cycle::ZERO;
        for _ in 0..OPS {
            tone.activate(8, now).expect("allocated and idle");
            for n in 0..64 {
                tone.arrive(8, NodeId(n)).expect("armed participant");
            }
            now = tone.completion_slot(8, now).expect("active");
            tone.complete(8, now).expect("active");
        }
        black_box(tone.stats().barriers_completed)
    })
}

/// Repetitions of the layer pass; host times are medians over them.
const LAYER_REPS: usize = 3;

/// The layer pass's variants, run in this order in each repetition: the
/// name of the round span that holds one variant's runs, and how much
/// of obs it installs. The full variant also pauses at [`quarter_cuts`]
/// and continues each pause on a restored snapshot.
pub const LAYER_VARIANTS: [(&str, Obs); 3] = [
    ("layer.plain", Obs::Off),
    ("layer.state", Obs::State),
    ("layer.full", Obs::StateAndSink),
];

/// What the layer pass established besides its spans.
pub struct LayerPass {
    /// Each layer case with its plain run.
    pub plain: Vec<(Case, Finished)>,
    /// Simulated cycles per attribution bucket, summed over the cases.
    pub attribution: [u64; Bucket::ALL.len()],
    /// Cases whose observed run paused at the cuts, without a snapshot,
    /// ends differently from the uninterrupted observed run.
    pub divergent: usize,
}

/// What each variant's runs of one case must reproduce.
struct References {
    cuts: Vec<u64>,
    /// The first `layer.plain` run: the reference of the later ones.
    plain: Option<u128>,
    /// The uninterrupted observed run: the reference of `layer.state`.
    uninterrupted: Option<u128>,
    /// The observed run paused at `cuts` without a snapshot: the
    /// reference of `layer.full`, so a restore that changes the result
    /// fails the op while pausing alone does not.
    paused: Option<u128>,
}

impl References {
    fn of(case: &Case, name: &str, seed: u64, scope: Scope, ledger: &mut Ledger) -> References {
        let run = guarded(case, seed, Plan::OBSERVED, scope, &mut OpTimes::default());
        ledger.record(name, 0, judge(case, &run, None, None));
        let Ok(run) = run else {
            return References {
                cuts: Vec::new(),
                plain: None,
                uninterrupted: None,
                paused: None,
            };
        };
        let cuts = quarter_cuts(run.cycles);
        let paused = paused_reference(case, name, seed, &cuts, scope, ledger);
        References {
            cuts,
            plain: None,
            uninterrupted: Some(run.fingerprint),
            paused: paused.map(|p| p.fingerprint),
        }
    }

    fn for_variant(&self, obs: Obs) -> Option<u128> {
        match obs {
            Obs::Off => self.plain,
            Obs::State => self.uninterrupted,
            Obs::StateAndSink => self.paused,
        }
    }
}

/// Runs every layer case in each [`LAYER_VARIANTS`] variant,
/// [`LAYER_REPS`] times, with spans on. Round ids start at
/// `first_round`. Before that, with spans off, it records each case's
/// references. Ops that panic, fail their check or differ from their
/// variant's reference are failures in `ledger`.
pub fn layer_pass(
    cases: Vec<Case>,
    seed: u64,
    tracer: &Tracer,
    first_round: u64,
    ledger: &mut Ledger,
) -> LayerPass {
    let names: Vec<String> = cases.iter().map(Case::name).collect();
    tracer.set_enabled(false);
    let mut references: Vec<References> = cases
        .iter()
        .zip(&names)
        .map(|(case, name)| References::of(case, name, seed, Scope::round(tracer, 0), ledger))
        .collect();
    let mut last: [Vec<Option<Finished>>; 3] = Default::default();
    let mut round = first_round;
    tracer.set_enabled(true);
    for _ in 0..LAYER_REPS {
        for (v, (kind, obs)) in LAYER_VARIANTS.into_iter().enumerate() {
            let scope = Scope::round(tracer, round);
            let start = Instant::now();
            last[v].clear();
            for (i, case) in cases.iter().enumerate() {
                let checkpoint = obs == Obs::StateAndSink;
                let plan = Plan {
                    obs,
                    cuts: if checkpoint { &references[i].cuts } else { &[] },
                    snapshot: checkpoint,
                };
                let case_scope = scope.child(&names[i]);
                let case_start = Instant::now();
                let result = guarded(case, seed, plan, case_scope, &mut OpTimes::default());
                case_scope.close("case", case_start, Instant::now());
                let reference = references[i].for_variant(obs);
                ledger.record(&names[i], round, judge(case, &result, None, reference));
                if obs == Obs::Off && reference.is_none() {
                    references[i].plain = result.as_ref().ok().map(|f| f.fingerprint);
                }
                last[v].push(result.ok());
            }
            scope.close(kind, start, Instant::now());
            round += 1;
        }
    }
    tracer.set_enabled(false);
    let divergent = references
        .iter()
        .filter(|r| matches!((r.uninterrupted, r.paused), (Some(u), Some(p)) if u != p))
        .count();
    // Every repetition simulates the same thing: keep the last.
    let [plain, state, _] = last;
    let mut attribution = [0; Bucket::ALL.len()];
    for f in state.iter().flatten() {
        for (total, v) in attribution
            .iter_mut()
            .zip(f.attribution.unwrap_or_default())
        {
            *total += v;
        }
    }
    LayerPass {
        plain: cases
            .into_iter()
            .zip(plain)
            .filter_map(|(case, f)| Some((case, f?)))
            .collect(),
        attribution,
        divergent,
    }
}
