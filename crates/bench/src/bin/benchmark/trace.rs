//! Spans recorded from outside the program, around the benchmark's calls
//! into each layer. They stay in memory and are written once, at exit, as
//! Chrome trace-event JSON (which Perfetto opens).

use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// The graph or request the span belongs to.
    subject: String,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span; `close` ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, subject: &str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, start: now, end: now, parent, subject: subject.to_string() });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        subject: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, subject);
        let out = f();
        self.close(span);
        out
    }

    pub fn duration(&self, span: usize) -> Duration {
        self.spans[span].duration()
    }

    /// Summed duration of the spans called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration().as_secs_f64() * 1e3).sum()
    }

    /// Summed duration of every span whose parent is called `parent`, in
    /// ms: how much of those spans the named stages account for.
    pub fn children_ms(&self, parent: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .sum()
    }

    /// The spans as Chrome trace-event JSON ("X" complete events, µs).
    pub fn chrome_json(&self) -> String {
        let events: Vec<serde_json::Value> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("", |p| self.spans[p].name);
                serde_json::json!({
                    "name": s.name,
                    "cat": s.name.split('.').next().unwrap_or(s.name),
                    "ph": "X",
                    "ts": s.start.as_secs_f64() * 1e6,
                    "dur": s.duration().as_secs_f64() * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": serde_json::json!({ "subject": s.subject, "parent": parent }),
                })
            })
            .collect();
        let doc = serde_json::json!({ "traceEvents": events, "displayTimeUnit": "ms" });
        serde_json::to_string(&doc).expect("trace serializes")
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_attributed_to_their_parent() {
        let mut rec = Recorder::new();
        let outer = rec.open("compile", None, "g");
        rec.time("stage", Some(outer), "g", || std::thread::sleep(Duration::from_millis(5)));
        rec.close(outer);
        assert!(rec.children_ms("compile") >= 5.0);
        assert!(rec.total_ms("compile") >= rec.children_ms("compile"));
        assert_eq!(rec.total_ms("stage"), rec.children_ms("compile"));
        let doc: serde_json::Value = serde_json::from_str(&rec.chrome_json()).unwrap();
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 2);
        assert_eq!(doc["traceEvents"][1]["args"]["parent"].as_str(), Some("compile"));
    }
}
