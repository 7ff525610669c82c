//! Pausing `Machine::run` at a cycle budget and calling it again must
//! simulate exactly what one uninterrupted run does: the event that is
//! not yet due stays where it is in its cycle's FIFO order.

use wisync_core::{Machine, MachineConfig, RunOutcome};
use wisync_wireless::MacPolicy;
use wisync_workloads::{CasKernel, CasKind};

/// A budget no kernel here reaches.
const BUDGET: u64 = 2_000_000_000_000;

/// Figure 9's FIFO kernel with a 16-instruction critical section on a
/// 64-core WiSync machine: its first event past cycle 130515 shares its
/// cycle with later-pushed peers, which re-queueing it would overtake.
fn fifo_w16() -> CasKernel {
    CasKernel {
        kind: CasKind::Fifo,
        critical_section: 16,
        // `wisync_bench::fig9_ops_for(16)`.
        ops_per_thread: (200_000 / (16 + 100)).clamp(8, 200),
    }
}

/// Runs the kernel, pausing at each of `cuts` first, and returns the
/// final cycle count and `MachineStats` rendering.
fn run_with_cuts(cuts: &[u64]) -> (u64, String) {
    let kernel = fifo_w16();
    // The paper's MAC, whatever `WISYNC_MAC` says: the cycle count below
    // is that of the run behind the committed Figure 9 point.
    let config = MachineConfig::wisync(64).with_mac(MacPolicy::Exponential);
    let mut m = Machine::new(config);
    let check = kernel.load(&mut m);
    for &cut in cuts {
        let r = m.run(cut);
        assert_eq!(r.outcome, RunOutcome::CycleLimit, "paused at {cut}");
    }
    let r = m.run(BUDGET);
    assert_eq!(r.outcome, RunOutcome::Completed);
    check.assert_correct(&m);
    (r.cycles.as_u64(), format!("{:?}", m.stats()))
}

#[test]
fn paused_run_matches_uninterrupted_run() {
    let whole = run_with_cuts(&[]);
    assert_eq!(whole.0, 261_031, "uninterrupted FIFO_w16 cycles");
    assert_eq!(run_with_cuts(&[130_515]), whole);
    // The quarter cuts of the whole run, as a checkpointing caller makes.
    assert_eq!(run_with_cuts(&[65_257, 130_515, 195_773]), whole);
}
