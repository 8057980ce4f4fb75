//! In-memory spans for the traced run.
//!
//! A span is a named interval with an optional parent and the request it
//! belongs to (one client, one critical section or one BFS level chunk).
//! Each recording thread owns a [`SpanLog`]; logs are capped so a long run
//! keeps its first requests in full and counts the rest, and they are
//! written out as JSON lines once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span inside its log.
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// One thread's (or one connection's) spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

fn ns_since(epoch: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

impl SpanLog {
    /// An empty log whose timestamps count from `epoch`, keeping at most
    /// `cap` spans.
    #[must_use]
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(cap.min(4096)),
            cap,
            dropped: 0,
        }
    }

    /// Records a finished span; `None` once the log is full (the span is
    /// counted as dropped).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: ns_since(self.epoch, start),
            end_ns: ns_since(self.epoch, end),
            parent,
            request,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Sets the end of span `id` (for a parent recorded before its
    /// children finished).
    pub fn finish(&mut self, id: SpanId, end: Instant) {
        self.spans[id as usize].end_ns = ns_since(self.epoch, end);
    }

    /// Spans kept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans not kept because the log was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per-name totals over a set of logs: `(count, total ns, self ns)`, where
/// self time is a span's duration minus the time its children cover.
#[must_use]
pub fn self_times(logs: &[SpanLog]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for log in logs {
        let mut child_ns = vec![0u64; log.spans.len()];
        for span in &log.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        for (span, children) in log.spans.iter().zip(child_ns) {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += duration;
            entry.2 += duration.saturating_sub(children);
        }
    }
    out
}

/// Writes every span of `logs` as one JSON object per line to `path`.
/// Span ids are global across logs: `log index << 32 | position`.
///
/// # Errors
/// Returns the I/O error if the file cannot be written.
pub fn write_jsonl(path: &std::path::Path, logs: &[SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (log_index, log) in logs.iter().enumerate() {
        let base = (log_index as u64) << 32;
        for (position, span) in log.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| (base | u64::from(p)).to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                base | position as u64,
                span.name,
                span.start_ns,
                span.end_ns,
                parent,
                span.request
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_cap_counts_drops() {
        let epoch = Instant::now();
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        let mut log = SpanLog::new(epoch, 3);
        let parent = log.record("cs", 7, None, at(0), at(100));
        log.record("acquire", 7, parent, at(0), at(30));
        log.record("critical", 7, parent, at(30), at(90));
        assert!(log.record("cs", 8, None, at(100), at(200)).is_none());
        assert_eq!(log.dropped(), 1);
        let totals = self_times(&[log]);
        assert_eq!(totals["cs"], (1, 100, 10));
        assert_eq!(totals["acquire"], (1, 30, 30));
    }
}
