//! The benchmark's own spans: recorded around calls into each layer,
//! kept in memory while a phase runs, written out when the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover. Children may overlap each other (a
//! pipelined client has several requests in flight), so coverage is the
//! measure of the union of the children's intervals, clipped to the
//! parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `client.encode`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Request the span belongs to; every span of one request shares it.
    pub req: u64,
}

/// An in-memory span log with one time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the log's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends every span of `other` (recorded against the same origin),
    /// re-basing its parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut run: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                run = match run {
                    Some((a, b)) if lo <= b => Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((a, b)) = run {
                covered += b - a;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(count, total duration ns, total self ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

/// Writes the spans as CSV: `name,start_ns,end_ns,parent,req`, with an
/// empty `parent` for roots.
pub fn write_csv(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "name,start_ns,end_ns,parent,req")?;
    for s in spans {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        writeln!(
            out,
            "{},{},{},{},{}",
            s.name, s.start_ns, s.end_ns, parent, s.req
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 7,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 45, 47, Some(0)),
        ];
        // Union of [10,40), [30,50), [45,47) is [10,50): 40 ns covered.
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn nested_children_only_reduce_their_direct_parent() {
        let spans = [
            span("root", 0, 100, None),
            span("mid", 10, 90, Some(0)),
            span("leaf", 20, 80, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 60]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("root", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 190, 400, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn totals_group_by_name_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin);
        let root = a.push("root", origin, origin, None, 1);
        a.push("leaf", origin, origin, Some(root), 1);
        let mut b = SpanLog::new(origin);
        let root_b = b.push("root", origin, origin, None, 2);
        b.push("leaf", origin, origin, Some(root_b), 2);
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        let totals = totals_by_name(a.spans());
        assert_eq!(totals["root"].0, 2);
        assert_eq!(totals["leaf"].0, 2);
    }
}
