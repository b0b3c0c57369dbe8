//! Incremental lint cache: content-hash → diagnostics.
//!
//! A warm `mpr-lint` run must not re-parse files that have not changed, so
//! the cache persists three things per file:
//!
//! 1. an FNV-1a hash of the file's bytes,
//! 2. the file's exported [`FileSymbols`](crate::ast::FileSymbols) records
//!    (so the workspace [`SymbolTable`](crate::ast::SymbolTable) can be
//!    rebuilt without parsing), and
//! 3. the diagnostics (violations + used exemptions) the engine produced.
//!
//! Two global keys guard reuse:
//!
//! * [`RULESET_VERSION`] — bumping the rule
//!   engine invalidates the whole cache, and
//! * the workspace symbol-table digest — cross-file rules (L6 unit-flow,
//!   L7 error-swallowing) read other files' signatures, so an export change
//!   anywhere invalidates every file's *diagnostics* (per-file symbols of
//!   unchanged files are still reused to rebuild the table cheaply).
//!
//! The on-disk format is a line-oriented text file (no serde offline);
//! any parse problem is treated as a cold cache, never an error.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::rules::{Rule, UsedExemption, Violation, RULESET_VERSION};

/// 64-bit FNV-1a over raw bytes — the per-file content key.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cached state for one workspace file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Entry {
    /// FNV-1a of the file content this entry was computed from.
    pub hash: u64,
    /// The file's exported symbol records (see `FileSymbols::records`).
    pub symbols: Vec<String>,
    /// Violations as `(line, rule-name, message)`.
    pub violations: Vec<(u32, String, String)>,
    /// Used exemptions as `(line, rule-name, reason)`.
    pub exemptions: Vec<(u32, String, String)>,
}

impl Entry {
    /// Reconstructs the diagnostics for `file` from this entry.
    #[must_use]
    pub fn diagnostics(&self, file: &str) -> (Vec<Violation>, Vec<UsedExemption>) {
        let violations = self
            .violations
            .iter()
            .filter_map(|(line, rule, message)| {
                Some(Violation {
                    file: file.to_owned(),
                    line: *line,
                    rule: rule_from_cache(rule)?,
                    message: message.clone(),
                })
            })
            .collect();
        let exemptions = self
            .exemptions
            .iter()
            .filter_map(|(line, rule, reason)| {
                Some(UsedExemption {
                    file: file.to_owned(),
                    line: *line,
                    rule: rule_from_cache(rule)?,
                    reason: reason.clone(),
                })
            })
            .collect();
        (violations, exemptions)
    }
}

fn rule_from_cache(name: &str) -> Option<Rule> {
    if name == "exemption" {
        Some(Rule::Exemption)
    } else {
        Rule::from_name(name)
    }
}

/// The whole persisted cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cache {
    /// Symbol-table digest the diagnostics were computed under.
    pub symtab_digest: u64,
    /// Per-file entries, keyed by workspace-relative path.
    pub entries: BTreeMap<String, Entry>,
}

impl Cache {
    /// Loads a cache from `path`. Returns an empty cache when the file is
    /// missing, unreadable, malformed, or written by a different
    /// `RULESET_VERSION` — a cold cache is always safe.
    #[must_use]
    pub fn load(path: &Path) -> Cache {
        let Ok(text) = fs::read_to_string(path) else {
            return Cache::default();
        };
        parse(&text).unwrap_or_default()
    }

    /// Writes the cache to `path`, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.render())
    }

    /// Serializes the cache to its line-oriented text format.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!(
            "mpr-lint-cache v{RULESET_VERSION} digest {:016x}\n",
            self.symtab_digest
        );
        for (file, e) in &self.entries {
            s.push_str(&format!("file {:016x} {}\n", e.hash, escape(file)));
            for rec in &e.symbols {
                s.push_str(&format!("sym {}\n", escape(rec)));
            }
            for (line, rule, msg) in &e.violations {
                s.push_str(&format!("viol {line} {rule} {}\n", escape(msg)));
            }
            for (line, rule, reason) in &e.exemptions {
                s.push_str(&format!("exempt {line} {rule} {}\n", escape(reason)));
            }
        }
        s
    }
}

fn parse(text: &str) -> Option<Cache> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let mut hp = header.split(' ');
    if hp.next() != Some("mpr-lint-cache") {
        return None;
    }
    let version = hp.next()?.strip_prefix('v')?;
    if version.parse::<u32>().ok()? != RULESET_VERSION {
        return None;
    }
    if hp.next() != Some("digest") {
        return None;
    }
    let symtab_digest = u64::from_str_radix(hp.next()?, 16).ok()?;

    let mut entries = BTreeMap::new();
    let mut current: Option<(String, Entry)> = None;
    for line in lines {
        let (kind, rest) = line.split_once(' ')?;
        match kind {
            "file" => {
                if let Some((name, e)) = current.take() {
                    entries.insert(name, e);
                }
                let (hash, name) = rest.split_once(' ')?;
                current = Some((
                    unescape(name),
                    Entry {
                        hash: u64::from_str_radix(hash, 16).ok()?,
                        ..Entry::default()
                    },
                ));
            }
            "sym" => current.as_mut()?.1.symbols.push(unescape(rest)),
            "viol" | "exempt" => {
                let (line_no, rest) = rest.split_once(' ')?;
                let (rule, text) = rest.split_once(' ')?;
                let row = (line_no.parse().ok()?, rule.to_owned(), unescape(text));
                let e = &mut current.as_mut()?.1;
                if kind == "viol" {
                    e.violations.push(row);
                } else {
                    e.exemptions.push(row);
                }
            }
            _ => return None,
        }
    }
    if let Some((name, e)) = current.take() {
        entries.insert(name, e);
    }
    Some(Cache {
        symtab_digest,
        entries,
    })
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c == '\\' {
            match it.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cache {
        let mut entries = BTreeMap::new();
        entries.insert(
            "crates/core/src/x.rs".to_owned(),
            Entry {
                hash: 0xdead_beef,
                symbols: vec!["fn|get|f64|".to_owned()],
                violations: vec![(3, "nan-safety".to_owned(), "msg with\nnewline".to_owned())],
                exemptions: vec![(7, "unit-hygiene".to_owned(), "why \\ back".to_owned())],
            },
        );
        Cache {
            symtab_digest: 42,
            entries,
        }
    }

    #[test]
    fn roundtrips_through_text() {
        let c = sample();
        assert_eq!(parse(&c.render()), Some(c));
    }

    #[test]
    fn rejects_other_ruleset_version() {
        let text = sample()
            .render()
            .replace(&format!("v{RULESET_VERSION}"), "v999");
        assert_eq!(parse(&text), None);
    }

    #[test]
    fn garbage_is_a_cold_cache() {
        assert_eq!(parse("not a cache"), None);
        assert_eq!(parse(""), None);
        assert_eq!(Cache::load(Path::new("/nonexistent/p")), Cache::default());
    }

    #[test]
    fn diagnostics_reconstruct_rules() {
        let c = sample();
        let e = &c.entries["crates/core/src/x.rs"];
        let (v, x) = e.diagnostics("crates/core/src/x.rs");
        assert_eq!(v.len(), 1);
        assert_eq!(v.first().map(|v| v.rule), Some(Rule::NanSafety));
        assert_eq!(x.len(), 1);
        assert_eq!(x.first().map(|x| x.line), Some(7));
    }

    #[test]
    fn fnv_is_stable_and_content_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
