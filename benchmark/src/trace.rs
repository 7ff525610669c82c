//! Host-time spans around the benchmark's own calls into each layer,
//! kept in memory and written out as a Chrome trace-event document when
//! the run ends. Spans inside the simulator are not recorded here.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wisync_testkit::Json;

/// One closed span. Ids start at 1; a `parent` of 0 marks a root.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub round: u64,
    pub case: String,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts over the span: the simulated work it covered, snapshot
    /// bytes, or sink rows.
    pub args: Vec<(&'static str, u64)>,
}

/// The span store. Recording is a no-op while disabled, so untraced
/// rounds pay one relaxed load per boundary.
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// A small stable id for the calling thread (1 for the first thread
/// that asks).
fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Reserves a span id (0 while disabled).
    pub fn id(&self) -> u64 {
        if self.enabled() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Where new spans attach: a round, and optionally a case span in it.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub tracer: &'a Tracer,
    pub round: u64,
    pub case: &'a str,
    /// This scope's own span id (the parent of its leaves).
    pub id: u64,
    /// The span this scope's own span nests in.
    pub parent: u64,
}

impl<'a> Scope<'a> {
    /// A root scope for one round.
    pub fn round(tracer: &'a Tracer, round: u64) -> Self {
        Scope {
            tracer,
            round,
            case: "",
            id: tracer.id(),
            parent: 0,
        }
    }

    /// A child scope for one case of this round.
    pub fn child(&self, case: &'a str) -> Scope<'a> {
        Scope {
            tracer: self.tracer,
            round: self.round,
            case,
            id: self.tracer.id(),
            parent: self.id,
        }
    }

    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Records span `id` under `parent` on the calling thread.
    fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled() {
            return;
        }
        let span = Span {
            id,
            parent,
            name,
            round: self.round,
            case: self.case.to_string(),
            tid: thread_id(),
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
            args,
        };
        let mut spans = self.tracer.spans.lock().expect("span store poisoned");
        spans.push(span);
    }

    /// Records a leaf span under this scope.
    pub fn leaf(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, u64)>,
    ) {
        self.record(self.tracer.id(), self.id, name, start, end, args);
    }

    /// Records this scope's own span.
    pub fn close(&self, name: &'static str, start: Instant, end: Instant) {
        self.record(self.id, self.parent, name, start, end, Vec::new());
    }
}

/// What one round's spans add up to.
#[derive(Debug, Default)]
pub struct RoundSpans {
    /// The name of the round's root span: `round` for a timed round, or
    /// the layer-pass variant.
    pub kind: &'static str,
    /// Duration of the root span.
    pub wall_ns: u64,
    /// Self time by span name: each span's duration minus the part of
    /// its interval its children cover (children on parallel threads
    /// may overlap, so their union is taken).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span args summed by key.
    pub args: BTreeMap<&'static str, u64>,
}

/// Groups spans by round.
pub fn by_round(spans: &[Span]) -> BTreeMap<u64, RoundSpans> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<u64, RoundSpans> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let round = out.entry(s.round).or_default();
        if s.parent == 0 {
            round.kind = s.name;
            round.wall_ns = s.end_ns - s.start_ns;
        }
        *round.self_ns.entry(s.name).or_default() +=
            (s.end_ns - s.start_ns).saturating_sub(covered);
        for &(key, v) in &s.args {
            *round.args.entry(key).or_default() += v;
        }
    }
    out
}

/// Renders spans as a Chrome trace-event document (`ph:"X"` rows, `ts`
/// and `dur` in microseconds). Each row's args carry its span id, parent
/// id, round, case and counter deltas.
pub fn to_chrome(spans: &[Span], workload: &str) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), Json::U64(s.id)),
                ("parent".to_string(), Json::U64(s.parent)),
                ("round".to_string(), Json::U64(s.round)),
                ("case".to_string(), Json::Str(s.case.clone())),
            ];
            args.extend(s.args.iter().map(|(k, v)| (k.to_string(), Json::U64(*v))));
            Json::obj([
                ("name", Json::from(s.name)),
                ("cat", Json::from("benchmark")),
                ("ph", Json::from("X")),
                ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                ("dur", Json::F64((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(s.tid)),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(rows)),
        ("displayTimeUnit", Json::from("ns")),
        ("otherData", Json::obj([("workload", Json::from(workload))])),
    ])
}

/// Checks a span document: every row is a complete span, every parent
/// id names a span in the document, and every child lies inside its
/// parent's interval. Returns the number of spans.
pub fn validate(doc: &Json) -> Result<usize, String> {
    // Rounding `ts`/`dur` to microsecond floats can move an edge by far
    // less than this.
    const SLACK_US: f64 = 1e-3;
    let Some(Json::Arr(rows)) = doc.get("traceEvents") else {
        return Err("no traceEvents array".to_string());
    };
    let num = |row: &Json, key: &str| match row.get(key) {
        Some(Json::F64(v)) => Some(*v),
        Some(Json::U64(v)) => Some(*v as f64),
        _ => None,
    };
    let mut intervals: HashMap<u64, (f64, f64)> = HashMap::new();
    let mut links: Vec<(u64, u64)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if row.get("ph") != Some(&Json::from("X")) {
            return Err(format!("row {i} is not a complete span"));
        }
        let (Some(ts), Some(dur)) = (num(row, "ts"), num(row, "dur")) else {
            return Err(format!("row {i} lacks ts/dur"));
        };
        let args = row.get("args");
        let id = match args.and_then(|a| a.get("id")) {
            Some(Json::U64(id)) if *id != 0 => *id,
            _ => return Err(format!("row {i} has no span id")),
        };
        let Some(Json::U64(parent)) = args.and_then(|a| a.get("parent")) else {
            return Err(format!("row {i} has no parent id"));
        };
        if intervals.insert(id, (ts, ts + dur)).is_some() {
            return Err(format!("span id {id} appears twice"));
        }
        if *parent != 0 {
            links.push((id, *parent));
        }
    }
    for (id, parent) in links {
        let Some(&(ps, pe)) = intervals.get(&parent) else {
            return Err(format!("span {id}: parent {parent} is missing"));
        };
        let (cs, ce) = intervals[&id];
        if cs + SLACK_US < ps || ce > pe + SLACK_US {
            return Err(format!(
                "span {id} [{cs}, {ce}] is not inside parent {parent} [{ps}, {pe}]"
            ));
        }
    }
    Ok(rows.len())
}
