//! The harness's own span log for the traced pass.
//!
//! Spans are recorded around calls *into* each layer (tracing inside the
//! program is a later change). The buffer is sized up front and never grows,
//! so recording a span does not allocate and the allocation counts read
//! around a child span belong to the layer, not to the log. The log is
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use obs::json::Json;

/// One recorded span. `parent == 0` marks a root (ids start at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name, e.g. `core.read`.
    pub name: &'static str,
    /// This span's id (its 1-based position in the log).
    pub id: u32,
    /// Id of the span that caused it, 0 for a root.
    pub parent: u32,
    /// Operation id shared by every span of one request.
    pub op: u32,
    /// Host start, ns since the log was created.
    pub start_ns: u64,
    /// Host end, ns since the log was created.
    pub end_ns: u64,
    /// Allocations made by the recording thread inside the span.
    pub allocs: u32,
    /// Virtual nanoseconds the call advanced the client's clock by.
    pub virt_ns: u64,
    /// Round trips the call was charged.
    pub rtts: u32,
    /// Wire bytes the call was charged.
    pub wire_bytes: u32,
}

/// Virtual-clock deltas read from `clock_ns()` / `stats()` around a call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtDelta {
    /// Virtual nanoseconds.
    pub ns: u64,
    /// Round trips.
    pub rtts: u64,
    /// Wire bytes.
    pub wire_bytes: u64,
}

/// A fixed-capacity, append-only span buffer.
pub struct SpanLog {
    spans: Vec<Span>,
    epoch: Instant,
}

/// Per-name totals of a [`SpanLog`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameRow {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus child coverage), ns.
    pub self_ns: u64,
    /// Sum of allocations.
    pub allocs: u64,
}

impl SpanLog {
    /// A log that can hold `capacity` spans.
    pub fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            spans: Vec::with_capacity(capacity),
            epoch: Instant::now(),
        }
    }

    /// Host nanoseconds since the log was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// [`SpanLog::now`] of an optional log, 0 without one: lets one loop
    /// serve both the timed run and its span-logged twin.
    pub fn stamp(log: &Option<&mut SpanLog>) -> u64 {
        log.as_ref().map_or(0, |l| l.now())
    }

    /// Appends a span and returns its id. Panics rather than reallocate:
    /// callers size the log for the run.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        start_ns: u64,
        end_ns: u64,
        allocs: u64,
        virt: VirtDelta,
    ) -> u32 {
        assert!(
            self.spans.len() < self.spans.capacity(),
            "span log sized too small"
        );
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            op,
            start_ns,
            end_ns,
            allocs: allocs as u32,
            virt_ns: virt.ns,
            rtts: virt.rtts as u32,
            wire_bytes: virt.wire_bytes as u32,
        });
        id
    }

    /// Id the next pushed span will get (lets a parent be named by its
    /// children before it is itself complete).
    pub fn next_id(&self) -> u32 {
        self.spans.len() as u32 + 1
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its child spans cover (overlapping children are counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                let p = &self.spans[s.parent as usize - 1];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if a < b {
                    children[s.parent as usize - 1].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if a < b {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Count, total, self time and allocations per span name.
    pub fn table(&self) -> BTreeMap<&'static str, NameRow> {
        let selfs = self.self_times();
        let mut rows: BTreeMap<&'static str, NameRow> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let r = rows.entry(s.name).or_default();
            r.count += 1;
            r.total_ns += s.end_ns - s.start_ns;
            r.self_ns += self_ns;
            r.allocs += u64::from(s.allocs);
        }
        rows
    }

    /// Sum of all self times: the host time the spans account for.
    pub fn accounted_ns(&self) -> u64 {
        self.self_times().iter().sum()
    }

    /// The log as one JSON document: a name table, column names, and one
    /// compact row per span.
    pub fn to_json(&self, workload: &str, wall_ns: u64) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let idx = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                Json::Arr(
                    [
                        idx as u64,
                        u64::from(s.id),
                        u64::from(s.parent),
                        u64::from(s.op),
                        s.start_ns,
                        s.end_ns,
                        u64::from(s.allocs),
                        s.virt_ns,
                        u64::from(s.rtts),
                        u64::from(s.wire_bytes),
                    ]
                    .into_iter()
                    .map(Json::from)
                    .collect(),
                )
            })
            .collect();
        let columns = [
            "name",
            "id",
            "parent",
            "op",
            "host_start_ns",
            "host_end_ns",
            "allocs",
            "virt_ns",
            "rtts",
            "wire_bytes",
        ];
        Json::obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("loop_wall_ns", Json::from(wall_ns)),
            ("accounted_ns", Json::from(self.accounted_ns())),
            (
                "names",
                Json::Arr(names.iter().map(|n| Json::Str(n.to_string())).collect()),
            ),
            (
                "columns",
                Json::Arr(columns.iter().map(|c| Json::Str(c.to_string())).collect()),
            ),
            ("spans", Json::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(spans: &[(&'static str, u32, u64, u64)]) -> SpanLog {
        let mut l = SpanLog::with_capacity(spans.len());
        for &(name, parent, a, b) in spans {
            l.push(name, parent, 0, a, b, 1, VirtDelta::default());
        }
        l
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        // op [0,100) with children [10,30) and [50,90): self = 100 - 20 - 40.
        let l = log(&[("op", 0, 0, 100), ("a", 1, 10, 30), ("b", 1, 50, 90)]);
        assert_eq!(l.self_times(), vec![40, 20, 40]);
        assert_eq!(l.accounted_ns(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10,60) and [40,120): coverage inside [0,100) is [10,100).
        let l = log(&[("op", 0, 0, 100), ("a", 1, 10, 60), ("b", 1, 40, 120)]);
        assert_eq!(l.self_times()[0], 10);
    }

    #[test]
    fn grandchildren_reduce_only_their_parent() {
        let l = log(&[("op", 0, 0, 100), ("a", 1, 0, 80), ("b", 2, 20, 50)]);
        assert_eq!(l.self_times(), vec![20, 50, 30]);
    }

    #[test]
    fn table_groups_by_name() {
        let l = log(&[
            ("op", 0, 0, 10),
            ("a", 1, 2, 6),
            ("op", 0, 10, 30),
            ("a", 3, 10, 25),
        ]);
        let t = l.table();
        assert_eq!(
            t["op"],
            NameRow {
                count: 2,
                total_ns: 30,
                self_ns: 11,
                allocs: 2
            }
        );
        assert_eq!(
            t["a"],
            NameRow {
                count: 2,
                total_ns: 19,
                self_ns: 19,
                allocs: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "sized too small")]
    fn a_full_log_refuses_to_grow() {
        log(&[("op", 0, 0, 1)]).push("x", 0, 0, 1, 2, 0, VirtDelta::default());
    }
}
