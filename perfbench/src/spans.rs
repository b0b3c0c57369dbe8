//! In-memory spans and counters of the traced run, written out as JSON
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json_number;

struct Span {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// Records spans (name, start, end, parent) and named counters. A tracer
/// made with [`Tracer::off`] records nothing and only times its closures,
/// so the untraced run shares the traced run's code paths.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// A tracer that records no spans.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span whose parent is the innermost open span.
    /// Returns `f`'s value and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        if !self.enabled {
            let start = Instant::now();
            let value = f(self);
            return (value, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_us: 0.0,
            end_us: 0.0,
        });
        self.open.push(id);
        let start = Instant::now();
        let start_us = self.now_us();
        let value = f(self);
        let secs = start.elapsed().as_secs_f64();
        let end_us = self.now_us();
        self.open.pop();
        if let Some(s) = self.spans.get_mut(id) {
            s.start_us = start_us;
            s.end_us = end_us;
        }
        (value, secs)
    }

    /// [`span`](Self::span) for a closure that does not record spans.
    pub fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.span(name, |_| f())
    }

    pub fn counter(&mut self, name: &str, value: f64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Writes `{"meta", "spans", "counters"}` to `path`.
    pub fn write(&self, path: &Path, meta: &[(&str, String)]) -> std::io::Result<()> {
        let mut out = String::from("{\n  \"meta\": {");
        let meta: Vec<String> = meta.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        out.push_str(&meta.join(", "));
        out.push_str("},\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                json_number(s.start_us),
                json_number(s.end_us)
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"counters\": {");
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
            .collect();
        out.push_str(&counters.join(", "));
        out.push_str("}\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
