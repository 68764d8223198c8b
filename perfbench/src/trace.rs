//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end, the span open when it started (its
//! parent) and the request it belongs to; all spans of one request share
//! the request id. Spans stay in memory while the workload runs and are
//! written out at the end. A span's layer is the first dot-separated part
//! of its name (`core.solve` → `core`), its area the first two parts
//! (`serve.proto.decode` → `serve.proto`).
//!
//! Untraced runs use [`Tracer::off`]: every call then runs the wrapped
//! code and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    request: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    request: u64,
    open: Vec<u32>,
    spans: Vec<Span>,
}

/// A started span, closed with [`Tracer::end`].
#[must_use]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts the next request: later spans carry a fresh request id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, a child of the innermost open span.
    #[inline]
    pub fn start(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request: self.request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, which must be the innermost open span.
    #[inline]
    pub fn end(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            let end_ns = self.now();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
            self.spans[idx as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.start(name);
        let out = f();
        self.end(open);
        out
    }

    /// Self time per layer and per area, root coverage, and the duration
    /// list of every span name.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut covered_ns = 0;
        for s in &self.spans {
            if s.parent == NO_PARENT {
                covered_ns += s.dur();
            } else {
                child_ns[s.parent as usize] += s.dur();
            }
        }
        let mut out = Summary {
            covered_ns,
            ..Summary::default()
        };
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let own = s.dur().saturating_sub(children);
            let mut parts = s.name.splitn(3, '.');
            let layer = parts.next().unwrap_or(s.name);
            let area_len = layer.len() + parts.next().map_or(0, |p| 1 + p.len());
            *out.layer_self_ns.entry(layer).or_default() += own;
            *out.area_self_ns.entry(&s.name[..area_len]).or_default() += own;
            out.durations
                .entry(s.name)
                .or_default()
                .push(s.dur() as f64);
        }
        out
    }

    /// Writes every span as a tab-separated line (`request`, `id`,
    /// `parent`, `name`, `start_ns`, `end_ns`; `-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "request\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// What the spans of one traced phase add up to.
#[derive(Debug, Default)]
pub struct Summary {
    /// Self time per layer (`core`, `snap`, …).
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// Self time per area (`serve.proto`, `serve.session`, …).
    pub area_self_ns: BTreeMap<&'static str, u64>,
    /// Total duration of the root spans: the part of the wall some span
    /// covers.
    pub covered_ns: u64,
    /// Every duration recorded under each span name, in nanoseconds.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
}

impl Summary {
    /// Self time of `layer`, in nanoseconds.
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.layer_self_ns.get(layer).copied().unwrap_or(0)
    }

    /// Self time of `area`, in nanoseconds.
    pub fn area_ns(&self, area: &str) -> u64 {
        self.area_self_ns.get(area).copied().unwrap_or(0)
    }

    /// The durations recorded under `name` (empty if none).
    pub fn durations_of(&mut self, name: &str) -> &mut [f64] {
        self.durations
            .get_mut(name)
            .map_or(&mut [], |v| v.as_mut_slice())
    }

    /// Total duration recorded under `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations.get(name).map_or(0.0, |v| v.iter().sum())
    }
}
