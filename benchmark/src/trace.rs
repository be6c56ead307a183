//! Spans around the benchmark's calls into each layer.
//!
//! The ledger measures every layer from outside: a span wraps one call
//! (or one batch of `calls` hot-path calls) into a crate's public
//! functions, and carries name, layer, start, end, parent and the id of
//! the op it belongs to. Workload code is generic over [`Tracing`], so
//! the untraced run is compiled against [`NoTrace`] and pays nothing;
//! the traced run uses [`Recorder`], keeps spans in memory, and writes
//! them out once at exit.
//!
//! A layer's self time is its spans' duration minus what their child
//! spans cover; its share is that self time over the traced wall time.

use crate::json::Json;
use crate::stats;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process first asked: the one timebase every
/// span uses, so code that cannot reach the recorder (a policy closure
/// run by the engine) can still stamp a span boundary.
pub fn clock_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The crates, plus the benchmark's own driver code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Metrics,
    Core,
    Runtime,
    Sim,
    Net,
    Tuning,
    Workloads,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Bench,
        Layer::Metrics,
        Layer::Core,
        Layer::Runtime,
        Layer::Sim,
        Layer::Net,
        Layer::Tuning,
        Layer::Workloads,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "benchmark",
            Layer::Metrics => "lg-metrics",
            Layer::Core => "lg-core",
            Layer::Runtime => "lg-runtime",
            Layer::Sim => "lg-sim",
            Layer::Net => "lg-net",
            Layer::Tuning => "lg-tuning",
            Layer::Workloads => "lg-workloads",
        }
    }

    /// The per-layer metric carrying this layer's share of wall time.
    pub fn share_metric(self) -> &'static str {
        match self {
            Layer::Bench => "share.benchmark",
            Layer::Metrics => "share.lg-metrics",
            Layer::Core => "share.lg-core",
            Layer::Runtime => "share.lg-runtime",
            Layer::Sim => "share.lg-sim",
            Layer::Net => "share.lg-net",
            Layer::Tuning => "share.lg-tuning",
            Layer::Workloads => "share.lg-workloads",
        }
    }
}

/// A span site. Declared as `static`s next to the call they wrap.
#[derive(Debug)]
pub struct Site {
    pub name: &'static str,
    pub layer: Layer,
}

/// An open span (index into the recorder's stack).
#[derive(Clone, Copy)]
pub struct Tok(u32);

pub trait Tracing {
    /// Whether spans are being recorded.
    const ON: bool;
    /// Opens a span for op `op`; its parent is the innermost open span.
    fn begin(&mut self, site: &'static Site, op: u64) -> Tok;
    /// Closes `tok`, which covered `calls` calls into the layer.
    fn end(&mut self, tok: Tok, calls: u32);
    /// [`clock_ns`] when recording, 0 (and no clock read) when not.
    fn now_ns(&self) -> u64;
    /// Adds a closed span from timestamps taken by the caller — for
    /// paths too short to carry `begin`/`end` bookkeeping inside them.
    fn record(&mut self, site: &'static Site, op: u64, start_ns: u64, end_ns: u64, calls: u32);
}

/// The untraced run: every method is empty and inlines away.
pub struct NoTrace;

impl Tracing for NoTrace {
    const ON: bool = false;
    #[inline(always)]
    fn begin(&mut self, _: &'static Site, _: u64) -> Tok {
        Tok(0)
    }
    #[inline(always)]
    fn end(&mut self, _: Tok, _: u32) {}
    #[inline(always)]
    fn now_ns(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn record(&mut self, _: &'static Site, _: u64, _: u64, _: u64, _: u32) {}
}

struct Open {
    site: &'static Site,
    op: u64,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

struct Span {
    site: &'static Site,
    op: u64,
    id: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    calls: u32,
}

/// Per-site totals, kept for every span even after the raw span buffer
/// is full.
struct Agg {
    site: &'static Site,
    spans: u64,
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    /// Per-call duration of each span, ns (bounded; see `SAMPLE_CAP`).
    per_call_ns: Vec<f64>,
}

/// Raw spans kept for the trace file. Totals and shares use every span;
/// the file holds the first this-many so it stays a few MB.
const SPAN_CAP: usize = 40_000;
/// Per-site per-call samples kept for medians.
const SAMPLE_CAP: usize = 1 << 16;

pub struct Recorder {
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    next_id: u32,
    agg: Vec<Agg>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(SPAN_CAP),
            dropped: 0,
            next_id: 1,
            agg: Vec::new(),
        }
    }

    fn agg_mut(&mut self, site: &'static Site) -> &mut Agg {
        // A workload has a dozen sites; a pointer scan beats hashing.
        let i = match self.agg.iter().position(|a| std::ptr::eq(a.site, site)) {
            Some(i) => i,
            None => {
                self.agg.push(Agg {
                    site,
                    spans: 0,
                    calls: 0,
                    total_ns: 0,
                    self_ns: 0,
                    per_call_ns: Vec::new(),
                });
                self.agg.len() - 1
            }
        };
        &mut self.agg[i]
    }

    fn close(&mut self, span: Span, child_ns: u64) {
        let dur = span.end_ns.saturating_sub(span.start_ns);
        let a = self.agg_mut(span.site);
        a.spans += 1;
        a.calls += span.calls as u64;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(child_ns);
        if a.per_call_ns.len() < SAMPLE_CAP {
            a.per_call_ns.push(dur as f64 / span.calls.max(1) as f64);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Spans recorded so far (kept or not).
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Median over a site's spans of duration per call, ns.
    pub fn per_call_ns(&self, site: &'static Site) -> f64 {
        self.agg
            .iter()
            .find(|a| std::ptr::eq(a.site, site))
            .filter(|a| !a.per_call_ns.is_empty())
            .map_or(f64::NAN, |a| stats::median(&a.per_call_ns))
    }

    /// `(total ns, calls)` over all of a site's spans.
    pub fn totals(&self, site: &'static Site) -> (u64, u64) {
        self.agg
            .iter()
            .find(|a| std::ptr::eq(a.site, site))
            .map_or((0, 0), |a| (a.total_ns, a.calls))
    }

    /// Self time per layer, ns.
    pub fn layer_self_ns(&self) -> [(Layer, u64); 8] {
        Layer::ALL.map(|l| {
            let ns = self
                .agg
                .iter()
                .filter(|a| a.site.layer == l)
                .map(|a| a.self_ns)
                .sum();
            (l, ns)
        })
    }

    /// Each layer's share of the time root spans covered.
    pub fn layer_shares(&self) -> Vec<(Layer, f64)> {
        let selfs = self.layer_self_ns();
        let total: u64 = selfs.iter().map(|(_, ns)| ns).sum();
        selfs
            .iter()
            .map(|&(l, ns)| (l, ns as f64 / total.max(1) as f64))
            .collect()
    }

    /// The trace file: kept spans, per-site totals, layer shares.
    pub fn to_json(&self, workload: &str, nproc: usize) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("name", Json::str(s.site.name)),
                    ("layer", Json::str(s.site.layer.name())),
                    ("op", Json::Num(s.op as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("calls", Json::Num(s.calls as f64)),
                ])
            })
            .collect();
        let sites = self
            .agg
            .iter()
            .map(|a| {
                Json::obj([
                    ("name", Json::str(a.site.name)),
                    ("layer", Json::str(a.site.layer.name())),
                    ("spans", Json::Num(a.spans as f64)),
                    ("calls", Json::Num(a.calls as f64)),
                    ("total_ns", Json::Num(a.total_ns as f64)),
                    ("self_ns", Json::Num(a.self_ns as f64)),
                    ("per_call_ns_median", Json::Num(self.per_call_ns(a.site))),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("nproc", Json::Num(nproc as f64)),
            ("spans_recorded", Json::Num(self.span_count() as f64)),
            ("spans_kept", Json::Num(self.spans.len() as f64)),
            (
                "layer_share",
                Json::obj(
                    self.layer_shares()
                        .into_iter()
                        .map(|(l, s)| (l.name(), Json::Num(s))),
                ),
            ),
            ("sites", Json::Arr(sites)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

impl Tracing for Recorder {
    const ON: bool = true;
    fn begin(&mut self, site: &'static Site, op: u64) -> Tok {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            site,
            op,
            id,
            start_ns: 0,
            child_ns: 0,
        });
        let tok = Tok(self.stack.len() as u32 - 1);
        // Clock read last, so the span excludes its own bookkeeping.
        self.stack[tok.0 as usize].start_ns = self.now_ns();
        tok
    }

    fn end(&mut self, tok: Tok, calls: u32) {
        let end_ns = self.now_ns();
        assert_eq!(
            tok.0 as usize + 1,
            self.stack.len(),
            "spans must close innermost-first"
        );
        let open = self.stack.pop().expect("matching begin");
        let parent = self.stack.last().map_or(0, |p| p.id);
        self.close(
            Span {
                site: open.site,
                op: open.op,
                id: open.id,
                parent,
                start_ns: open.start_ns,
                end_ns,
                calls,
            },
            open.child_ns,
        );
    }

    fn now_ns(&self) -> u64 {
        clock_ns()
    }

    fn record(&mut self, site: &'static Site, op: u64, start_ns: u64, end_ns: u64, calls: u32) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |p| p.id);
        self.close(
            Span {
                site,
                op,
                id,
                parent,
                start_ns,
                end_ns,
                calls,
            },
            0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static OUTER: Site = Site {
        name: "outer",
        layer: Layer::Bench,
    };
    static INNER: Site = Site {
        name: "inner",
        layer: Layer::Core,
    };

    #[test]
    fn self_time_excludes_children_and_shares_sum_to_one() {
        let mut r = Recorder::new();
        let o = r.begin(&OUTER, 7);
        let t0 = r.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t1 = r.now_ns();
        r.record(&INNER, 7, t0, t1, 4);
        r.end(o, 1);
        assert_eq!(r.span_count(), 2);
        let inner_ns = t1 - t0;
        assert_eq!(r.per_call_ns(&INNER), inner_ns as f64 / 4.0);
        let selfs = r.layer_self_ns();
        let core = selfs.iter().find(|(l, _)| *l == Layer::Core).unwrap().1;
        let bench = selfs.iter().find(|(l, _)| *l == Layer::Bench).unwrap().1;
        assert_eq!(core, inner_ns);
        assert!(bench < inner_ns, "outer self time excludes the child");
        let total: f64 = r.layer_shares().iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let j = r.to_json("t", 2);
        let spans = j.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans[0].get("parent").unwrap().as_f64(), Some(1.0));
    }
}
