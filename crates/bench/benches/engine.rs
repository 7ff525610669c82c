//! Engine microbenchmarks: raw throughput of the simulation substrates,
//! useful for spotting performance regressions in the simulator itself.
//!
//! Runs on the in-repo `wisync-testkit` harness; timings land in
//! `results/bench_engine.json`.
//!
//! The `steady_state` and `coherence_mix` pairs measure the event queue
//! on a bounded population of in-flight events, once on the production
//! timing wheel and once on the heap-based [`ReferenceEventQueue`], so
//! the wheel-vs-heap ratio is visible in every report. `steady_state`
//! draws the model's dominant 2–110-cycle latencies plus occasional
//! backoff waits up to 1024 cycles; `coherence_mix` draws from the push
//! deltas measured on the repository benchmark's `coherence` workload,
//! where more than a quarter of pushes land a block (1024 cycles) or
//! more ahead.

use std::hint::black_box;

use wisync_mem::{MemConfig, MemOp, MemSystem};
use wisync_noc::{Mesh, NodeId};
use wisync_sim::{Cycle, DetRng, EventQueue, ReferenceEventQueue};
use wisync_testkit::{BenchConfig, Harness};
use wisync_wireless::{DataChannel, Resolution, TxLen, WirelessConfig};

/// One event-latency draw from the machine's dominant distribution:
/// mostly short memory/wireless round-trips, occasionally an
/// exponential-backoff wait.
fn latency_draw(rng: &mut DetRng) -> u64 {
    if rng.gen_range(16) == 0 {
        1 + rng.gen_range(1024)
    } else {
        2 + rng.gen_range(108)
    }
}

/// One push delta from the mix measured on the repository benchmark's
/// `coherence` workload (Baseline machines under shared-line ping-pong,
/// DESIGN §8.1): 71.6% under 1024 cycles, 17.2% in 1024–2047 and 11.2%
/// in 2048–65535 (the measured 0.1% beyond folded into the last band).
/// Within each band the draw is [`latency_draw`] or uniform.
fn coherence_mix_draw(rng: &mut DetRng) -> u64 {
    match rng.gen_range(1000) {
        0..716 => latency_draw(rng),
        716..888 => 1024 + rng.gen_range(1024),
        _ => 2048 + rng.gen_range(65536 - 2048),
    }
}

/// The production and reference queues behind one interface, so each
/// queue workload is written once.
trait Queue: Default {
    fn push(&mut self, at: Cycle, event: u64);
    fn pop(&mut self) -> Option<(Cycle, u64)>;
}

impl Queue for EventQueue<u64> {
    fn push(&mut self, at: Cycle, event: u64) {
        EventQueue::push(self, at, event);
    }
    fn pop(&mut self) -> Option<(Cycle, u64)> {
        EventQueue::pop(self)
    }
}

impl Queue for ReferenceEventQueue<u64> {
    fn push(&mut self, at: Cycle, event: u64) {
        ReferenceEventQueue::push(self, at, event);
    }
    fn pop(&mut self) -> Option<(Cycle, u64)> {
        ReferenceEventQueue::pop(self)
    }
}

/// One million pop+push rounds on a population of 4096 in-flight events,
/// each re-pushed `draw` cycles after the cycle it popped at.
fn steady_state<Q: Queue>(seed: u64, draw: fn(&mut DetRng) -> u64) -> Cycle {
    let mut q = Q::default();
    let mut rng = DetRng::new(seed);
    for i in 0..4096u64 {
        q.push(Cycle(draw(&mut rng)), i);
    }
    let mut last = Cycle::ZERO;
    for i in 0..1_000_000u64 {
        let (at, e) = q.pop().expect("steady-state queue never empties");
        debug_assert!(at >= last);
        last = at;
        black_box(e);
        q.push(at + draw(&mut rng), i);
    }
    last
}

fn main() {
    let mut h = Harness::new("engine").with_config(BenchConfig {
        warmup_iters: 3,
        iters: 20,
    });
    h.print_header();

    h.bench("engine/event_queue_push_pop_10k", || {
        let mut q = EventQueue::new();
        let mut rng = DetRng::new(7);
        for i in 0..10_000u64 {
            q.push(Cycle(rng.gen_range(1_000_000)), i);
        }
        let mut last = Cycle::ZERO;
        while let Some((at, e)) = q.pop() {
            debug_assert!(at >= last);
            last = at;
            black_box(e);
        }
        last
    });

    h.bench("engine/event_queue_steady_state_1m", || {
        steady_state::<EventQueue<u64>>(11, latency_draw)
    });
    h.bench("engine/reference_queue_steady_state_1m", || {
        steady_state::<ReferenceEventQueue<u64>>(11, latency_draw)
    });
    h.bench("engine/event_queue_coherence_mix_1m", || {
        steady_state::<EventQueue<u64>>(13, coherence_mix_draw)
    });
    h.bench("engine/reference_queue_coherence_mix_1m", || {
        steady_state::<ReferenceEventQueue<u64>>(13, coherence_mix_draw)
    });

    h.bench("engine/mem_10k_mixed_accesses", || {
        let mut mem = MemSystem::new(MemConfig::default(), Mesh::new(64, 4));
        let mut t = Cycle::ZERO;
        for i in 0..10_000u64 {
            let core = NodeId((i % 64) as usize);
            let addr = (i % 512) * 64;
            let op = if i % 3 == 0 {
                MemOp::Store(i)
            } else {
                MemOp::Load
            };
            t = mem.access(core, addr, op, t).complete_at;
        }
        black_box(t)
    });

    // Drives the channel through the event queue exactly as `Machine`'s
    // event loop does (duplicate resolves land as harmless `Idle`s).
    h.bench("engine/data_channel_1k_contended_transfers", || {
        let mut ch: DataChannel<u64> = DataChannel::new(WirelessConfig::default(), 64);
        let mut q: EventQueue<()> = EventQueue::new();
        for i in 0..1_000u64 {
            let (_, s) = ch.request(NodeId((i % 64) as usize), TxLen::Normal, i, Cycle(i / 8));
            q.push(s, ());
        }
        let mut delivered = 0u64;
        while let Some((slot, ())) = q.pop() {
            match ch.resolve(slot) {
                Resolution::Idle => {}
                Resolution::Deferred(next) => {
                    for s in next {
                        q.push(s, ());
                    }
                }
                Resolution::Started { .. } => delivered += 1,
                Resolution::Collision { retry_slots, .. } => {
                    for s in retry_slots {
                        q.push(s, ());
                    }
                }
            }
        }
        black_box(delivered)
    });

    h.finish().expect("write bench report");
}
