//! In-memory spans around calls into the program's layers.
//!
//! A span is opened and closed by the benchmark's own code around one
//! public call; the span open at the time becomes its parent. Spans
//! stay in memory and are written out once, when the run ends. A
//! disabled tracer records nothing, so the untraced run executes the
//! same code with a branch per call.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span (meaningless when tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct Open(usize);

pub struct Tracer {
    enabled: bool,
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: String) -> Tracer {
        Tracer {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn close(&mut self, open: Open) {
        if open.0 == usize::MAX {
            return;
        }
        let end = self.now_ns();
        self.spans[open.0].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Durations (ms) of the spans named `name` whose parent is named
    /// `parent`.
    pub fn durations_in(&self, name: &str, parent: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(Span::ms)
            .collect()
    }

    /// Per span named `name`: the summed duration of its direct children
    /// divided by its own duration.
    pub fn coverage(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let covered: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(Span::ms)
                    .sum();
                covered / s.ms()
            })
            .collect()
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"run_id\":\"{}\",\"spans\":[", self.run_id);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_coverage() {
        let mut t = Tracer::new(true, "t".into());
        let outer = t.open("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        let c = t.coverage("outer")[0];
        assert!(c > 0.5 && c <= 1.0, "{c}");
        assert!(t.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, "t".into());
        let o = t.open("x");
        t.close(o);
        assert!(t.durations("x").is_empty());
    }
}
