//! Structured run reports: the JSON-serializable snapshot of a recorder.
//!
//! A [`RunReport`] is what crosses the crate boundary: `bane-core` builds
//! one from its recorder at the end of a run, `bench_json` embeds it in
//! `BENCH_n.json` snapshots, and the `--report` flag writes a suite-level
//! [merge](RunReport::merge) of all benchmarks. The JSON schema is tagged
//! `"bane-obs/1"` and documented field-by-field in `docs/OBSERVABILITY.md`;
//! [`RunReport::from_json`] round-trips exactly what
//! [`RunReport::to_json`] writes, which the golden-file test in
//! `bane-bench` pins.

use crate::event::{Event, EventRecord};
use crate::json::{self, Value};

/// Schema tag written into every serialized report.
pub const SCHEMA: &str = "bane-obs/1";

/// One row of the phase-timing table: accumulated figures for a phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseReport {
    /// Stable phase name (see [`Phase::name`](crate::Phase::name)).
    pub phase: String,
    /// Completed `start`/`stop` pairs.
    pub calls: u64,
    /// Total nanoseconds, inclusive of nested phases.
    pub total_ns: u64,
    /// Nanoseconds excluding nested phases.
    pub self_ns: u64,
}

/// A complete, self-describing snapshot of one run's observability data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Free-form run label (benchmark name, experiment config, …).
    pub label: String,
    /// Per-phase timing rows, in canonical phase order.
    pub phases: Vec<PhaseReport>,
    /// `(name, value)` pairs for every non-zero counter, in canonical
    /// counter order.
    pub counters: Vec<(String, u64)>,
    /// The retained tail of the event ring, oldest first.
    pub events: Vec<EventRecord>,
    /// Events overwritten by the ring before this snapshot.
    pub events_dropped: u64,
}

impl RunReport {
    /// The value of counter `name`, if present (i.e. non-zero at snapshot
    /// time).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Derived `work.redundant / work.total`, when both counters are
    /// present and work was done. Rendered by
    /// [`render_table`](RunReport::render_table) and surfaced in bench
    /// summary rows; never serialized as a counter (the JSON schema stores
    /// only raw monotonic figures).
    pub fn redundant_ratio(&self) -> Option<f64> {
        let total = self.counter("work.total")?;
        let redundant = self.counter("work.redundant")?;
        (total > 0).then(|| redundant as f64 / total as f64)
    }

    /// The timing row for phase `name`, if it ran.
    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.phase == name)
    }

    /// Folds `other` into `self` for suite-level aggregation: phase rows
    /// and counters are summed by name (saturating), retained events are
    /// appended (their `seq` stays relative to the source run), and drop
    /// counts accumulate. The label is kept from `self`.
    pub fn merge(&mut self, other: &RunReport) {
        for row in &other.phases {
            match self.phases.iter_mut().find(|p| p.phase == row.phase) {
                Some(mine) => {
                    mine.calls = mine.calls.saturating_add(row.calls);
                    mine.total_ns = mine.total_ns.saturating_add(row.total_ns);
                    mine.self_ns = mine.self_ns.saturating_add(row.self_ns);
                }
                None => self.phases.push(row.clone()),
            }
        }
        for (name, value) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine = mine.saturating_add(*value),
                None => self.counters.push((name.clone(), *value)),
            }
        }
        self.events.extend(other.events.iter().copied());
        self.events_dropped = self.events_dropped.saturating_add(other.events_dropped);
    }

    /// Serializes the report as a single-line JSON object tagged with
    /// [`SCHEMA`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\": ");
        out.push_str(&json::string(SCHEMA));
        out.push_str(", \"label\": ");
        out.push_str(&json::string(&self.label));
        out.push_str(", \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"phase\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json::string(&p.phase),
                p.calls,
                p.total_ns,
                p.self_ns
            ));
        }
        out.push_str("], \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json::string(name));
            out.push_str(": ");
            out.push_str(&value.to_string());
        }
        out.push_str("}, \"events\": [");
        for (i, rec) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_event(&mut out, rec);
        }
        out.push_str(&format!("], \"events_dropped\": {}}}", self.events_dropped));
        out
    }

    /// Parses a report previously written by [`to_json`](RunReport::to_json).
    ///
    /// Fails on malformed JSON, an unknown schema tag, or a record that
    /// doesn't match the documented shape.
    pub fn from_json(input: &str) -> Result<RunReport, String> {
        let value = json::parse(input).map_err(|e| e.to_string())?;
        let schema = value
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema tag")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema {schema:?} (expected {SCHEMA:?})"));
        }
        let label = value
            .get("label")
            .and_then(Value::as_str)
            .ok_or("missing label")?
            .to_string();

        let mut phases = Vec::new();
        for row in value.get("phases").and_then(Value::as_arr).ok_or("missing phases")? {
            phases.push(PhaseReport {
                phase: row
                    .get("phase")
                    .and_then(Value::as_str)
                    .ok_or("phase row missing name")?
                    .to_string(),
                calls: field_u64(row, "calls")?,
                total_ns: field_u64(row, "total_ns")?,
                self_ns: field_u64(row, "self_ns")?,
            });
        }

        let Some(Value::Obj(counter_fields)) = value.get("counters") else {
            return Err("missing counters".to_string());
        };
        let mut counters = Vec::new();
        for (name, v) in counter_fields {
            let v = v.as_u64().ok_or_else(|| format!("counter {name} not a u64"))?;
            counters.push((name.clone(), v));
        }

        let mut events = Vec::new();
        for rec in value.get("events").and_then(Value::as_arr).ok_or("missing events")? {
            events.push(parse_event(rec)?);
        }

        Ok(RunReport {
            label,
            phases,
            counters,
            events,
            events_dropped: field_u64(&value, "events_dropped")?,
        })
    }

    /// Renders the report as a human-readable table (phases, counters, and
    /// an event summary) for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("run report: {}\n", self.label));

        if !self.phases.is_empty() {
            let name_w = self
                .phases
                .iter()
                .map(|p| p.phase.len())
                .chain(["phase".len()])
                .max()
                .unwrap_or(5);
            out.push_str(&format!(
                "  {:<name_w$}  {:>10}  {:>12}  {:>12}\n",
                "phase", "calls", "total", "self"
            ));
            for p in &self.phases {
                out.push_str(&format!(
                    "  {:<name_w$}  {:>10}  {:>12}  {:>12}\n",
                    p.phase,
                    p.calls,
                    fmt_ns(p.total_ns),
                    fmt_ns(p.self_ns)
                ));
            }
        }

        if !self.counters.is_empty() {
            // Derived figure, not a stored counter (and not in the JSON
            // schema): fraction of the paper's Work that was redundant
            // edge traffic — the number online cycle elimination shrinks.
            let ratio = self.redundant_ratio();
            let name_w = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .chain(["counter".len()])
                .chain(ratio.map(|_| "work.redundant-ratio".len()))
                .max()
                .unwrap_or(7);
            out.push_str(&format!("  {:<name_w$}  {:>14}\n", "counter", "value"));
            for (name, value) in &self.counters {
                out.push_str(&format!("  {:<name_w$}  {:>14}\n", name, value));
            }
            if let Some(ratio) = ratio {
                out.push_str(&format!(
                    "  {:<name_w$}  {:>14.4}\n",
                    "work.redundant-ratio", ratio
                ));
            }
        }

        let emitted = self.events.len() as u64 + self.events_dropped;
        if emitted > 0 {
            out.push_str(&format!(
                "  events: {} retained, {} dropped ({} emitted)\n",
                self.events.len(),
                self.events_dropped,
                emitted
            ));
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn field_u64(obj: &Value, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-u64 field {key:?}"))
}

fn write_event(out: &mut String, rec: &EventRecord) {
    out.push_str(&format!(
        "{{\"seq\": {}, \"kind\": {}",
        rec.seq,
        json::string(rec.event.kind())
    ));
    match rec.event {
        Event::CycleCollapsed { witness, members } => {
            out.push_str(&format!(", \"witness\": {witness}, \"members\": {members}"));
        }
        Event::ListPromoted { node, kind } => {
            out.push_str(&format!(", \"node\": {node}, \"list\": {}", json::string(kind)));
        }
        Event::Inconsistency => {}
        Event::WorkLimitHit { work } => {
            out.push_str(&format!(", \"work\": {work}"));
        }
    }
    out.push('}');
}

fn parse_event(rec: &Value) -> Result<EventRecord, String> {
    let seq = field_u64(rec, "seq")?;
    let kind = rec.get("kind").and_then(Value::as_str).ok_or("event missing kind")?;
    let event = match kind {
        "cycle-collapsed" => Event::CycleCollapsed {
            witness: field_u64(rec, "witness")? as u32,
            members: field_u64(rec, "members")? as u32,
        },
        "list-promoted" => Event::ListPromoted {
            node: field_u64(rec, "node")? as u32,
            kind: match rec.get("list").and_then(Value::as_str) {
                Some("pred-vars") => "pred-vars",
                Some("succ-vars") => "succ-vars",
                Some("pred-srcs") => "pred-srcs",
                Some("succ-snks") => "succ-snks",
                _ => return Err("list-promoted event with unknown list".to_string()),
            },
        },
        "inconsistency" => Event::Inconsistency,
        "work-limit-hit" => Event::WorkLimitHit { work: field_u64(rec, "work")? },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(EventRecord { seq, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            label: "povray-2.2/if-online".to_string(),
            phases: vec![
                PhaseReport {
                    phase: "resolve".to_string(),
                    calls: 1,
                    total_ns: 25_000_000,
                    self_ns: 11_000_000,
                },
                PhaseReport {
                    phase: "cycle-detect".to_string(),
                    calls: 4200,
                    total_ns: 14_000_000,
                    self_ns: 14_000_000,
                },
            ],
            counters: vec![
                ("work.total".to_string(), 123_456),
                ("search.edges-scanned".to_string(), u64::MAX),
            ],
            events: vec![
                EventRecord { seq: 0, event: Event::CycleCollapsed { witness: 7, members: 3 } },
                EventRecord {
                    seq: 1,
                    event: Event::ListPromoted { node: 12, kind: "succ-vars" },
                },
                EventRecord { seq: 2, event: Event::Inconsistency },
                EventRecord { seq: 3, event: Event::WorkLimitHit { work: 99 } },
            ],
            events_dropped: 5,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample();
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // And the serialization itself is stable (byte-identical re-emit).
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_shapes() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("not json").is_err());
        let wrong_schema = sample().to_json().replace("bane-obs/1", "bane-obs/999");
        assert!(RunReport::from_json(&wrong_schema).unwrap_err().contains("unknown schema"));
        let bad_event =
            r#"{"schema": "bane-obs/1", "label": "x", "phases": [], "counters": {}, "events": [{"seq": 0, "kind": "mystery"}], "events_dropped": 0}"#;
        assert!(RunReport::from_json(bad_event).unwrap_err().contains("unknown event kind"));
    }

    #[test]
    fn counter_and_phase_lookup() {
        let report = sample();
        assert_eq!(report.counter("work.total"), Some(123_456));
        assert_eq!(report.counter("work.missing"), None);
        assert_eq!(report.phase("resolve").unwrap().calls, 1);
        assert!(report.phase("generate").is_none());
    }

    #[test]
    fn merge_sums_by_name_and_accumulates_drops() {
        let mut a = sample();
        let mut b = sample();
        b.label = "other".to_string();
        b.phases.push(PhaseReport {
            phase: "least-solution".to_string(),
            calls: 1,
            total_ns: 5,
            self_ns: 5,
        });
        b.counters.push(("ls.entries".to_string(), 8));
        a.merge(&b);

        assert_eq!(a.label, "povray-2.2/if-online", "label kept from self");
        assert_eq!(a.phase("resolve").unwrap().calls, 2);
        assert_eq!(a.phase("resolve").unwrap().total_ns, 50_000_000);
        assert_eq!(a.phase("least-solution").unwrap().total_ns, 5);
        assert_eq!(a.counter("work.total"), Some(246_912));
        assert_eq!(a.counter("search.edges-scanned"), Some(u64::MAX), "saturates");
        assert_eq!(a.counter("ls.entries"), Some(8));
        assert_eq!(a.events.len(), 8);
        assert_eq!(a.events_dropped, 10);
    }

    #[test]
    fn render_table_mentions_every_section() {
        let table = sample().render_table();
        assert!(table.contains("povray-2.2/if-online"));
        assert!(table.contains("resolve"));
        assert!(table.contains("work.total"));
        assert!(table.contains("123456"));
        assert!(table.contains("5 dropped"));
        assert!(table.contains("25.000ms"));
        // `work.redundant` is absent from the sample, so no derived row.
        assert!(!table.contains("work.redundant-ratio"));
    }

    #[test]
    fn redundant_ratio_is_derived_not_stored() {
        let mut report = sample();
        assert_eq!(report.redundant_ratio(), None);
        report.counters.push(("work.redundant".to_string(), 30_864));
        let ratio = report.redundant_ratio().expect("both counters present");
        assert!((ratio - 30_864.0 / 123_456.0).abs() < 1e-12);
        let table = report.render_table();
        assert!(table.contains("work.redundant-ratio"));
        assert!(table.contains("0.2500"));
        // Round-trips never carry the derived row: it is display-only.
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert!(back.counter("work.redundant-ratio").is_none());
        assert_eq!(back.redundant_ratio(), report.redundant_ratio());
        // Zero work yields no ratio rather than a NaN.
        let mut zero = sample();
        zero.counters = vec![
            ("work.total".to_string(), 0),
            ("work.redundant".to_string(), 0),
        ];
        assert_eq!(zero.redundant_ratio(), None);
    }
}
