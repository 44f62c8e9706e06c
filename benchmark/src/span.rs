//! Harness spans: one record per call into a layer.
//!
//! The traced run wraps every call the harness makes into a library
//! layer in a span — name, start, end, the span that caused it, and the
//! round it belongs to — keeps them in memory, and only aggregates or
//! writes them out after the last round. Spans live entirely in the
//! harness; nothing is recorded inside any crate.
//!
//! A layer's *self time* is its span's duration minus the part its
//! direct children cover. Leaf calls made back to back are recorded
//! with [`Trace::lap`], which closes one span and opens the next on a
//! single clock read, so consecutive leaves tile their parent and the
//! clock reads themselves are attributed instead of lost in the gaps.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `core.receive_ia`.
    pub name: &'static str,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Round the span belongs to (shared by every span of one round).
    pub round: u32,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a round calls at each layer boundary. The untraced run passes
/// [`NoTrace`], whose methods compile to nothing, so the timed loop of
/// the end-to-end measurement carries no tracing branch.
pub trait Trace {
    /// Open a nested span; it becomes the parent of what follows.
    fn enter(&mut self, name: &'static str);
    /// Close the innermost open span.
    fn exit(&mut self);
    /// Record the interval since the last boundary (the latest `enter`,
    /// `exit` or `lap`) as a leaf span named `name`.
    fn lap(&mut self, name: &'static str);
}

/// The tracer of untraced runs.
pub struct NoTrace;

impl Trace for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn lap(&mut self, _name: &'static str) {}
}

/// The in-memory span recorder of traced runs.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    boundary: u64,
    round: u32,
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            boundary: 0,
            round: 0,
        }
    }

    /// Tag the spans that follow with this round id.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Hand the recorded spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }
}

impl Trace for Tracer {
    fn enter(&mut self, name: &'static str) {
        let now = self.now();
        let parent = self.parent();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { name, parent, round: self.round, start_ns: now, end_ns: now });
        self.boundary = now;
    }

    fn exit(&mut self) {
        let now = self.now();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx as usize].end_ns = now;
        self.boundary = now;
    }

    fn lap(&mut self, name: &'static str) {
        let now = self.now();
        let parent = self.parent();
        self.spans.push(Span {
            name,
            parent,
            round: self.round,
            start_ns: self.boundary,
            end_ns: now,
        });
        self.boundary = now;
    }
}

/// Self time of every span: duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration());
        }
    }
    own
}

/// Calls and summed self time per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Their self time, ns.
    pub self_ns: u64,
}

/// Aggregate self time by name over every round.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.self_ns += own;
    }
    out
}

/// Largest share of any root span's duration that its children leave
/// unattributed (0 when leaves tile their round exactly). The
/// acceptance check on the span dump: self times of a round must add up
/// to the round.
pub fn worst_root_self_share(spans: &[Span]) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.parent == NO_PARENT && s.duration() > 0)
        .map(|(s, own)| own as f64 / s.duration() as f64)
        .fold(0.0, f64::max)
}

/// `a` followed by `b`, with `b`'s parent links and round ids shifted
/// past `a`'s so that the result is one consistent span list.
pub fn concat(a: &[Span], b: &[Span]) -> Vec<Span> {
    let offset = a.len() as u32;
    let rounds = a.iter().map(|s| s.round + 1).max().unwrap_or(0);
    let shifted = b.iter().map(|s| Span {
        parent: if s.parent == NO_PARENT { NO_PARENT } else { s.parent + offset },
        round: s.round + rounds,
        ..s.clone()
    });
    a.iter().cloned().chain(shifted).collect()
}

/// Write the span dump: one JSON document, spans as rows
/// `[id, name, parent, round, start_ns, end_ns, self_ns]` with `name`
/// an index into `names` and `parent` -1 for a root.
pub fn write_dump(path: &str, workload: &str, spans: &[Span]) -> Result<(), String> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
    for span in spans {
        index.entry(span.name).or_insert_with(|| {
            names.push(span.name);
            names.len() - 1
        });
    }
    let io = |e: std::io::Error| format!("{path}: {e}");
    let file = std::fs::File::create(path).map_err(io)?;
    let mut w = std::io::BufWriter::new(file);
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    write!(
        w,
        "{{\"schema\":\"dbgp-benchmark-spans/v1\",\"workload\":\"{workload}\",\"time_unit\":\"ns\",\
         \"columns\":[\"id\",\"name\",\"parent\",\"round\",\"start_ns\",\"end_ns\",\"self_ns\"],\
         \"names\":[{}],\"spans\":[",
        quoted.join(",")
    )
    .map_err(io)?;
    for (id, (span, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = if span.parent == NO_PARENT { -1 } else { i64::from(span.parent) };
        let sep = if id == 0 { "" } else { "," };
        write!(
            w,
            "{sep}\n[{id},{},{parent},{},{},{},{own}]",
            index[span.name], span.round, span.start_ns, span.end_ns
        )
        .map_err(io)?;
    }
    writeln!(w, "\n]}}").map_err(io)?;
    w.flush().map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, round: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0,100] > decode [10,30], receive [30,90] > select [40,60]
        let spans = vec![
            span("round", NO_PARENT, 0, 100),
            span("decode", 0, 10, 30),
            span("receive", 0, 30, 90),
            span("select", 2, 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 40, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["receive"], NameTotal { calls: 1, self_ns: 40 });
        assert_eq!(
            totals.values().map(|t| t.self_ns).sum::<u64>(),
            100,
            "self times tile the root"
        );
        assert!((worst_root_self_share(&spans) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn laps_tile_their_parent_exactly() {
        let mut t = Tracer::new();
        t.set_round(7);
        t.enter("round");
        for _ in 0..50 {
            std::hint::black_box(vec![0u8; 64]);
            t.lap("a");
            t.lap("b");
        }
        t.exit();
        let spans = t.into_spans();
        let spans = &spans[..];
        assert_eq!(spans.len(), 101);
        assert!(spans.iter().all(|s| s.round == 7));
        assert!(spans[1..].iter().all(|s| s.parent == 0));
        // Consecutive laps share their boundary clock read.
        for pair in spans[1..].windows(2) {
            assert_eq!(pair[0].end_ns, pair[1].start_ns);
        }
        assert_eq!(spans[1].start_ns, spans[0].start_ns);
        let own = self_times(spans);
        assert_eq!(own[0], spans[0].end_ns - spans[100].end_ns, "root keeps only the tail");
    }

    #[test]
    fn nested_enter_exit_links_parents() {
        let mut t = Tracer::new();
        t.enter("outer");
        t.enter("inner");
        t.lap("leaf");
        t.exit();
        t.exit();
        let s = t.into_spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 1));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[2].end_ns);
    }

    #[test]
    fn dump_is_parseable_json() {
        let spans = vec![span("round", NO_PARENT, 0, 10), span("wire.decode", 0, 0, 4)];
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/span-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.json");
        write_dump(path.to_str().unwrap(), "w", &spans).unwrap();
        let doc = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let rows = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].as_array().unwrap()[6].as_u64(), Some(4));
        assert_eq!(rows[0].as_array().unwrap()[6].as_u64(), Some(6));
    }
}
