//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A traced run gives every generator thread a [`Recorder`]. Spans carry
//! an id, a name, start and end (nanoseconds since the run's epoch), the
//! id of their parent span in the same recorder, and a request id shared
//! by the spans of one request. Nothing is written while measuring; the
//! spans are written out once, when the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u64 = u64::MAX;

/// Spans one recorder keeps: the most recent ones. Bounds the memory a
/// traced run takes and the file it writes, while every operation of a
/// traced loop still pays for recording its spans.
pub const CAPACITY: usize = 1 << 13;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Position in the recorder's sequence of spans.
    pub id: u64,
    /// What was timed, e.g. `service.acquire_name`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end: u64,
    /// Id of the parent span in the same recorder, or [`ROOT`].
    pub parent: u64,
    /// Request id shared by the spans of one request.
    pub request: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span buffer: a ring holding the last [`CAPACITY`] spans.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Which probe or phase the spans belong to (a column of the output).
    pub phase: &'static str,
    spans: Vec<Span>,
    next: u64,
}

impl Recorder {
    /// An empty recorder timing against `epoch`.
    pub fn new(epoch: Instant, phase: &'static str) -> Self {
        Self {
            epoch,
            phase,
            spans: Vec::with_capacity(CAPACITY),
            next: 0,
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        let span = Span {
            id: self.next,
            name,
            start: self.offset(start),
            end: self.offset(end),
            parent,
            request,
        };
        if self.spans.len() < CAPACITY {
            self.spans.push(span);
        } else {
            self.spans[(self.next % CAPACITY as u64) as usize] = span;
        }
        self.next += 1;
        span.id
    }

    /// The spans kept (the most recent [`CAPACITY`]), in no set order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the kept spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect()
    }
}

/// Durations of the kept spans named `name` across several recorders.
pub fn durations(recorders: &[Recorder], name: &str) -> Vec<u64> {
    recorders.iter().flat_map(|r| r.durations(name)).collect()
}

/// Writes every kept span as one tab-separated line: phase, thread, id,
/// name, start, end, parent (empty for a root), request.
pub fn write_tsv<W: Write>(out: &mut W, recorders: &[Recorder]) -> io::Result<()> {
    writeln!(
        out,
        "phase\tthread\tid\tname\tstart_ns\tend_ns\tparent\trequest"
    )?;
    for (thread, recorder) in recorders.iter().enumerate() {
        let mut spans = recorder.spans.clone();
        spans.sort_by_key(|s| s.id);
        for span in spans {
            let parent = if span.parent == ROOT {
                String::new()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{thread}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                recorder.phase, span.id, span.name, span.start, span.end, span.request
            )?;
        }
    }
    Ok(())
}
