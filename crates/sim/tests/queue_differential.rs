//! Differential property test: the timing-wheel [`EventQueue`] and the
//! heap-based [`ReferenceEventQueue`] must behave identically under
//! arbitrary interleavings of push/pop/clear — identical `(Cycle, id)`
//! pop sequences (including same-cycle FIFO order and ordering across
//! `clear`), identical lengths, identical `peek_cycle`s. Deadline-bounded
//! pops (`pop_due`) must match the reference's `peek_cycle()` + `pop()`,
//! and `iter_ordered` must list the pending events in drain order.
//!
//! Pushes reach every region of the wheel: one-cycle slots (less than two
//! blocks of 1024 cycles ahead), one-block buckets (up to ~1M cycles),
//! the far heap beyond them, and the past heap.
//!
//! Failures shrink to a minimal op sequence; replay with
//! `WISYNC_TESTKIT_SEED=<seed> cargo test -p wisync-sim`.

use wisync_sim::{Cycle, EventQueue, ReferenceEventQueue};
use wisync_testkit::gen::{self, BoxedGen, Gen};
use wisync_testkit::{check_with, prop_assert_eq, Config, PropResult};

/// One step of a generated queue workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push an event at `last_pop + delta` (relative, like the machine's
    /// own scheduling, so sequences stay meaningful after shrinking).
    Push {
        delta: u64,
    },
    /// Push at `offset - 4` cycles from the start of the block `blocks`
    /// after the clock's, straddling the fine/coarse window edges.
    PushEdge {
        blocks: u64,
        offset: u64,
    },
    /// Push beyond the fine window (coarse buckets, or the far heap for
    /// deltas past ~1M cycles).
    PushFar {
        delta: u64,
    },
    /// Push at an absolute early cycle (exercises the past heap once the
    /// queue has advanced).
    PushAbs {
        at: u64,
    },
    Pop,
    /// Pop only if the head is exactly at `last_pop + delta` — the
    /// sharded machine's batch-drain primitive.
    PopAt {
        delta: u64,
    },
    /// Pop only if the head is due by `last_pop + ahead - back` — the
    /// machine's budget-bounded event loop, including a budget below the
    /// clock.
    PopDue {
        ahead: u64,
        back: u64,
    },
    Clear,
}

fn op_gen() -> BoxedGen<Op> {
    gen::one_of(vec![
        // Dominant case: near-future pushes in the model's 0–1100 cycle
        // latency range, straddling the one-block fine-push fast path.
        gen::range(0u64..1100)
            .map(|delta| Op::Push { delta })
            .boxed(),
        // Deltas straddling the two-block fine window's length.
        gen::range(1990u64..2110)
            .map(|delta| Op::Push { delta })
            .boxed(),
        (gen::range(1u64..4), gen::range(0u64..8))
            .map(|(blocks, offset)| Op::PushEdge { blocks, offset })
            .boxed(),
        gen::range(1_000u64..100_000)
            .map(|delta| Op::PushFar { delta })
            .boxed(),
        // Past the coarse window (1024 blocks after the fine window).
        gen::range(1_000_000u64..4_000_000)
            .map(|delta| Op::PushFar { delta })
            .boxed(),
        gen::range(0u64..50).map(|at| Op::PushAbs { at }).boxed(),
        gen::range(0u32..3).map(|_| Op::Pop).boxed(),
        // Mostly delta 0 (hit the head: the machine's same-cycle batch
        // drain), sometimes a miss.
        gen::range(0u64..3).map(|delta| Op::PopAt { delta }).boxed(),
        gen::range(0u64..3000)
            .map(|ahead| Op::PopDue { ahead, back: 0 })
            .boxed(),
        gen::range(1u64..4)
            .map(|back| Op::PopDue { ahead: 0, back })
            .boxed(),
        gen::range(0u32..1).map(|_| Op::Clear).boxed(),
    ])
    .boxed()
}

fn queues_agree(ops: &[Op]) -> PropResult {
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut reference: ReferenceEventQueue<u32> = ReferenceEventQueue::new();
    let mut next_id = 0u32;
    let mut clock = 0u64; // cycle of the most recent pop

    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Push { delta } | Op::PushFar { delta } => {
                let at = Cycle(clock + delta);
                wheel.push(at, next_id);
                reference.push(at, next_id);
                next_id += 1;
            }
            Op::PushEdge { blocks, offset } => {
                let at = Cycle((((clock >> 10) + blocks) << 10) + offset - 4);
                wheel.push(at, next_id);
                reference.push(at, next_id);
                next_id += 1;
            }
            Op::PushAbs { at } => {
                let at = Cycle(at);
                wheel.push(at, next_id);
                reference.push(at, next_id);
                next_id += 1;
            }
            Op::Pop => {
                let got = wheel.pop();
                let want = reference.pop();
                prop_assert_eq!(got, want, "pop mismatch at op {}", i);
                if let Some((at, _)) = got {
                    clock = at.as_u64();
                }
            }
            Op::PopAt { delta } => {
                let at = Cycle(clock + delta);
                let got = wheel.pop_at(at);
                let want = reference.pop_at(at);
                prop_assert_eq!(got, want, "pop_at mismatch at op {}", i);
                if got.is_some() {
                    clock = at.as_u64();
                }
            }
            Op::PopDue { ahead, back } => {
                let deadline = Cycle((clock + ahead).saturating_sub(back));
                let got = wheel.pop_due(deadline);
                let want = match reference.peek_cycle() {
                    Some(c) if c <= deadline => reference.pop(),
                    _ => None,
                };
                prop_assert_eq!(got, want, "pop_due mismatch at op {}", i);
                if let Some((at, _)) = got {
                    clock = at.as_u64();
                }
            }
            Op::Clear => {
                wheel.clear();
                reference.clear();
            }
        }
        prop_assert_eq!(wheel.len(), reference.len(), "len mismatch at op {}", i);
        prop_assert_eq!(
            wheel.peek_cycle(),
            reference.peek_cycle(),
            "peek mismatch at op {}",
            i
        );
        prop_assert_eq!(
            wheel.peek().map(|(at, e)| (at, *e)),
            reference.peek().map(|(at, e)| (at, *e)),
            "peek event mismatch at op {}",
            i
        );
        prop_assert_eq!(wheel.is_empty(), reference.is_empty());
    }

    // `iter_ordered` lists the pending events in drain order, and
    // re-pushing that list into a fresh queue reproduces it.
    let listed: Vec<(Cycle, u32)> = wheel.iter_ordered().iter().map(|&(c, &e)| (c, e)).collect();
    let mut rebuilt: EventQueue<u32> = EventQueue::new();
    for &(at, e) in &listed {
        rebuilt.push(at, e);
    }

    // Drain: the tails must match exactly too.
    let mut drained = Vec::new();
    loop {
        let got = wheel.pop();
        let want = reference.pop();
        prop_assert_eq!(got, want, "drain mismatch");
        prop_assert_eq!(rebuilt.pop(), want, "rebuilt drain mismatch");
        match got {
            Some(ev) => drained.push(ev),
            None => break,
        }
    }
    prop_assert_eq!(listed, drained, "iter_ordered differs from drain order");
    Ok(())
}

#[test]
fn wheel_matches_reference_heap_on_arbitrary_interleavings() {
    check_with(
        Config::with_cases(256),
        "wheel_matches_reference_heap_on_arbitrary_interleavings",
        gen::vecs(op_gen(), 0..200),
        |ops| queues_agree(&ops),
    );
}

/// Pinned corner cases: shapes the generator may take a while to hit.
#[test]
fn pinned_corner_interleavings() {
    use Op::{Clear, Pop, PopAt, PopDue, Push, PushAbs, PushEdge, PushFar};
    let cases: Vec<Vec<Op>> = vec![
        // pop_at hitting the head mid-slot-drain (same-cycle FIFO), then a
        // miss one cycle later, then a hit after a plain pop re-anchors.
        vec![
            Push { delta: 7 },
            Push { delta: 7 },
            Pop,
            PopAt { delta: 0 },
            PopAt { delta: 1 },
            Push { delta: 2 },
            PopAt { delta: 2 },
        ],
        // pop_at on an empty queue and on a past-heap head.
        vec![
            PopAt { delta: 0 },
            Push { delta: 400 },
            Pop,
            PushAbs { at: 1 },
            PopAt { delta: 0 },
        ],
        // Same-cycle FIFO through a partially drained slot.
        vec![
            Push { delta: 9 },
            Push { delta: 9 },
            Pop,
            Push { delta: 0 },
            Pop,
            Pop,
        ],
        // Overflow promotion racing later same-cycle pushes.
        vec![
            PushFar { delta: 1124 },
            Push { delta: 200 },
            Pop,
            Push { delta: 924 },
            Pop,
            Pop,
        ],
        // Past-heap events after the queue has advanced.
        vec![
            Push { delta: 500 },
            Pop,
            PushAbs { at: 3 },
            Push { delta: 0 },
            Pop,
            Pop,
        ],
        // Clear in the middle keeps later ordering intact.
        vec![
            Push { delta: 5 },
            PushFar { delta: 90_000 },
            Clear,
            Push { delta: 5 },
            Push { delta: 5 },
            Pop,
            Pop,
        ],
        // Exactly at the wheel horizon boundary (1023 in-window, 1024 out).
        vec![
            Push { delta: 1023 },
            Push { delta: 1024 },
            Push { delta: 1025 },
            Pop,
            Pop,
            Pop,
        ],
        // Coarse→fine cascade followed by a same-cycle push: cycle 2148
        // (block 2) waits in a coarse bucket until popping cycle 1100
        // moves the clock into block 1; the later push at 2148 must pop
        // after the cascaded event.
        vec![
            Push { delta: 2148 },
            Push { delta: 1100 },
            Pop,
            Push { delta: 1048 },
            Pop,
            Pop,
            Pop,
        ],
        // Far-heap promotion on a jump of more than 1024 blocks: the empty
        // wheel jumps from cycle 5 to 3M, promoting both far events, and a
        // same-cycle push after the jump pops behind them.
        vec![
            PushFar { delta: 3_000_000 },
            PushFar { delta: 3_000_000 },
            PushFar { delta: 3_001_500 },
            Push { delta: 5 },
            Pop,
            PopDue {
                ahead: 2_000,
                back: 0,
            },
            Pop,
            Push { delta: 0 },
            Push { delta: 1_500 },
            Pop,
            Pop,
            Pop,
        ],
        // Far-heap promotion on a one-block slide: cycle 1026 · 1024 sits
        // just past the coarse window until popping cycle 1100 slides it
        // in; a later same-cycle push lands in the coarse bucket behind it.
        vec![
            PushFar { delta: 1_050_624 },
            Push { delta: 1100 },
            Pop,
            PushFar {
                delta: 1_050_624 - 1100,
            },
            Pop,
            Pop,
        ],
        // A budget below the clock refuses the head even when it sits
        // in the clock's own slot.
        vec![
            Push { delta: 5 },
            Push { delta: 5 },
            Pop,
            PopDue { ahead: 0, back: 1 },
            Pop,
        ],
        // `iter_ordered` across all four regions: past heap, fine slots,
        // a coarse bucket interleaving cycles, and the far heap (the
        // checker compares the listing with the drain).
        vec![
            Push { delta: 500 },
            Pop,
            PushAbs { at: 3 },
            PushAbs { at: 2 },
            Push { delta: 10 },
            Push { delta: 1_600 },
            PushEdge {
                blocks: 2,
                offset: 3,
            },
            PushEdge {
                blocks: 2,
                offset: 5,
            },
            PushEdge {
                blocks: 2,
                offset: 3,
            },
            PushFar { delta: 50_000 },
            PushFar { delta: 2_000_000 },
            PushFar { delta: 1_500_000 },
        ],
    ];
    for ops in cases {
        if let Err(f) = queues_agree(&ops) {
            panic!("corner case {ops:?} failed: {}", f.message);
        }
    }
}
