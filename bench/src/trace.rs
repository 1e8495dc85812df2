//! In-memory spans recorded by the benchmark's own code around its calls
//! into the layers, written out once at exit. A span is
//! `{name, start, end, parent, packet}`; the spans of one packet share
//! its id and hang off that packet's root span.

use crate::json::{obj, Value};

/// `parent` of a root span.
pub const ROOT: u32 = u32::MAX;
/// Spans written to the file; the per-layer statistics use all recorded
/// samples, the file is for reading individual packets.
const WRITE_LIMIT: usize = 40_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the store, or [`ROOT`].
    pub parent: u32,
    pub packet: u64,
}

#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Records a span (dropped silently once the file limit is reached)
    /// and returns its index for children to point at.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        packet: u64,
    ) -> u32 {
        if self.spans.len() >= WRITE_LIMIT {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            packet,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", s.name.into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                        (
                            "parent",
                            if s.parent == ROOT {
                                Value::Null
                            } else {
                                u64::from(s.parent).into()
                            },
                        ),
                        ("packet", s.packet.into()),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_their_root() {
        let mut s = Spans::default();
        let root = s.push("packet", 10, 50, ROOT, 7);
        let child = s.push("submit", 10, 20, root, 7);
        assert_eq!((root, child), (0, 1));
        let text = s.to_json().encode();
        assert!(text.contains("\"parent\":null") && text.contains("\"parent\":0"));
    }
}
