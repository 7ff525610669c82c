//! The benchmark's workloads. Every machine workload is a list of points
//! of the committed figure grid (`results/fig7.json` .. `fig10.json`),
//! each loaded, run and checked through the simulator's public API, so a
//! timed op is exactly a run someone regenerating or profiling a figure
//! pays for.

use std::collections::BTreeSet;
use std::fmt;

use wisync_core::{Machine, MachineConfig, MachineKind, MachineStats};
use wisync_testkit::Json;
use wisync_workloads::{
    AppProfile, AppWorkload, CasKernel, CasKind, Livermore, LivermoreLoop, TightLoop,
};

/// The seed at which every case reproduces its committed figure value:
/// `MachineConfig`'s default seed.
pub const DEFAULT_SEED: u64 = 0xA5ED;

/// Barrier episodes per Figure 7 run in the full grid.
const FIG7_ITERS: u64 = 20;

/// The figure grid's core count.
pub const GRID_CORES: usize = 64;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ToneBarrier,
    DataChannel,
    Coherence,
    ObservedCheckpoint,
    Figures,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ToneBarrier,
        Workload::DataChannel,
        Workload::Coherence,
        Workload::ObservedCheckpoint,
        Workload::Figures,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ToneBarrier => "tone_barrier",
            Workload::DataChannel => "data_channel",
            Workload::Coherence => "coherence",
            Workload::ObservedCheckpoint => "observed_checkpoint",
            Workload::Figures => "figures",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The grid points one round runs (empty for `figures`, which runs
    /// the whole grid through the sweep pool instead).
    pub fn cases(self) -> Vec<Case> {
        use CasKind::{Add, Fifo};
        use LivermoreLoop::{Loop3, Loop6};
        use MachineKind::{Baseline, BaselinePlus, WiSync, WiSyncNoT};
        match self {
            // Event wheel, uop interpreter, tone channel and private L1
            // hits; the Data channel and the directory stay nearly idle.
            Workload::ToneBarrier => vec![
                Case::fig7(64, WiSync),
                Case::fig7(256, WiSync),
                Case::fig8(Loop3, 4096, WiSync),
                Case::fig8(Loop6, 512, WiSync),
                Case::fig10("streamcluster", WiSync),
                Case::fig10("ocean-c", WiSync),
            ],
            // Data-channel arbitration, the MAC, and BM RMW/AFB retries;
            // the tone channel is idle.
            Workload::DataChannel => vec![
                Case::fig7(64, WiSyncNoT),
                Case::fig7(256, WiSyncNoT),
                Case::fig9(Fifo, 16, WiSync),
                Case::fig9(Add, 16, WiSync),
                Case::fig10("raytrace", WiSync),
                Case::fig10("water-ns", WiSyncNoT),
            ],
            // MOESI directory and mesh under shared-line write/RMW
            // ping-pong; no wireless hardware at all.
            Workload::Coherence => vec![
                Case::fig7(64, Baseline),
                Case::fig7(64, BaselinePlus),
                Case::fig9(Fifo, 16, Baseline),
                Case::fig9(Add, 16, Baseline),
                Case::fig8(Loop3, 4096, Baseline),
                Case::fig10("raytrace", Baseline),
                Case::fig10("dedup", Baseline),
            ],
            // The only workload through obs and snapshot/restore.
            Workload::ObservedCheckpoint => vec![
                Case::fig10("streamcluster", WiSync),
                Case::fig10("raytrace", Baseline),
                Case::fig7(64, WiSyncNoT),
                Case::fig9(Fifo, 16, WiSync),
            ],
            Workload::Figures => Vec::new(),
        }
    }

    /// The cases a traced run's layer pass runs: the workload's own, or
    /// on `figures`, whose grid jobs call the simulator inside closures
    /// the benchmark cannot wrap, every grid point the other workloads
    /// run.
    pub fn layer_cases(self) -> Vec<Case> {
        if self != Workload::Figures {
            return self.cases();
        }
        let mut seen = BTreeSet::new();
        Workload::ALL
            .into_iter()
            .flat_map(Workload::cases)
            .filter(|c| seen.insert(c.name()))
            .collect()
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The program a case loads.
#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    TightLoop(TightLoop),
    Livermore(Livermore),
    Cas(CasKernel),
    App(AppProfile),
}

/// One figure-grid point: a kernel on one machine kind.
#[derive(Clone, Debug)]
pub struct Case {
    /// Committed figure file stem (`fig7` .. `fig10`).
    pub figure: &'static str,
    /// Row name inside that figure, as the sweep writes it.
    pub row: String,
    pub kind: MachineKind,
    pub cores: usize,
    pub kernel: Kernel,
}

/// Verifies a finished case's final machine state.
pub enum Checker {
    TightLoop(TightLoop),
    Livermore(wisync_workloads::livermore::LivermoreCheck),
    Cas(wisync_workloads::cas_kernels::CasCheck),
    /// `AppWorkload` has no result oracle; its outcome and cycles are
    /// the check.
    None,
}

impl Checker {
    pub fn check(&self, m: &Machine) -> Result<(), String> {
        match self {
            Checker::TightLoop(t) => t.check(m),
            Checker::Livermore(c) => c.check(m),
            Checker::Cas(c) => c.check(m),
            Checker::None => Ok(()),
        }
    }
}

impl Case {
    fn fig7(cores: usize, kind: MachineKind) -> Case {
        Case {
            figure: "fig7",
            row: format!("{cores}cores"),
            kind,
            cores,
            kernel: Kernel::TightLoop(TightLoop::new(FIG7_ITERS)),
        }
    }

    fn fig8(which: LivermoreLoop, n: u64, kind: MachineKind) -> Case {
        let wl = match which {
            LivermoreLoop::Loop2 => Livermore::loop2(n),
            LivermoreLoop::Loop3 => Livermore::loop3(n, 10),
            LivermoreLoop::Loop6 => Livermore::loop6(n),
        };
        Case {
            figure: "fig8",
            row: format!("{which:?}_n{n}"),
            kind,
            cores: GRID_CORES,
            kernel: Kernel::Livermore(wl),
        }
    }

    fn fig9(cas: CasKind, w: u64, kind: MachineKind) -> Case {
        Case {
            figure: "fig9",
            row: format!("{cas}_w{w}"),
            kind,
            cores: GRID_CORES,
            kernel: Kernel::Cas(CasKernel {
                kind: cas,
                critical_section: w,
                ops_per_thread: wisync_bench::fig9_ops_for(w),
            }),
        }
    }

    fn fig10(app: &str, kind: MachineKind) -> Case {
        Case {
            figure: "fig10",
            row: app.to_string(),
            kind,
            cores: GRID_CORES,
            kernel: Kernel::App(AppProfile::by_name(app).expect("Figure 10 application")),
        }
    }

    /// `fig7/64cores@WiSync`.
    pub fn name(&self) -> String {
        format!("{}/{}@{}", self.figure, self.row, self.kind)
    }

    /// The machine for this case. `seed` feeds `MachineConfig::with_seed`.
    pub fn config(&self, seed: u64) -> MachineConfig {
        MachineConfig::for_kind(self.kind, self.cores).with_seed(seed)
    }

    /// Loads the kernel onto `m` and returns its checker. `seed` also
    /// perturbs the application jitter seed, by its distance from
    /// [`DEFAULT_SEED`], so the default seed keeps the committed jitter.
    pub fn load(&self, m: &mut Machine, seed: u64) -> Checker {
        match self.kernel {
            Kernel::TightLoop(t) => {
                t.load(m);
                Checker::TightLoop(t)
            }
            Kernel::Livermore(l) => Checker::Livermore(l.load(m)),
            Kernel::Cas(c) => Checker::Cas(c.load(m)),
            Kernel::App(p) => {
                let mut app = AppWorkload::new(p);
                app.seed ^= seed ^ DEFAULT_SEED;
                app.load(m);
                Checker::None
            }
        }
    }

    /// The figure's plotted quantity for a completed run of `cycles`.
    pub fn quantity(&self, cycles: u64, stats: &MachineStats) -> f64 {
        match self.kernel {
            Kernel::TightLoop(t) => (cycles / t.iters) as f64,
            Kernel::Cas(_) => stats.cas_successes as f64 * 1000.0 / cycles as f64,
            Kernel::Livermore(_) | Kernel::App(_) => cycles as f64,
        }
    }

    /// The value this case must reproduce at [`DEFAULT_SEED`], read from
    /// the committed figure document.
    pub fn committed(&self, doc: &Json) -> Result<f64, String> {
        let name = self.name();
        let (key, column) = match self.figure {
            "fig7" => ("cycles_per_iter", kind_column(self.kind)),
            "fig8" | "fig10" => ("cycles", kind_column(self.kind)),
            "fig9" => (
                "cas_per_kcycle",
                match self.kind {
                    MachineKind::Baseline => 0,
                    MachineKind::WiSync => 1,
                    other => return Err(format!("{name}: fig9 has no {other} column")),
                },
            ),
            other => return Err(format!("{name}: unknown figure {other}")),
        };
        let Some(Json::Arr(rows)) = doc.get("rows") else {
            return Err(format!("{name}: {} has no rows", self.figure));
        };
        let row = rows
            .iter()
            .find(|r| r.get("row") == Some(&Json::Str(self.row.clone())))
            .ok_or_else(|| format!("{name}: no row {} in {}", self.row, self.figure))?;
        let value = match row.get("data").and_then(|d| d.get(key)) {
            Some(Json::Arr(values)) => values.get(column),
            _ => None,
        };
        match value {
            Some(Json::U64(v)) => Ok(*v as f64),
            Some(Json::F64(v)) => Ok(*v),
            _ => Err(format!("{name}: row {} has no {key}[{column}]", self.row)),
        }
    }
}

fn kind_column(kind: MachineKind) -> usize {
    MachineKind::all()
        .iter()
        .position(|k| *k == kind)
        .expect("every kind is in the comparison order")
}
