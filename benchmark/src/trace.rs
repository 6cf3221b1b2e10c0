//! Spans recorded from the benchmark's own files, around each call into a
//! layer of the program.
//!
//! A disabled [`Tracer`] runs the wrapped calls and records nothing, so
//! the reference check and the traced run share one code path.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The unit (sweep batch or service session) the span belongs to.
    pub unit: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    unit: Cell<u64>,
    /// Work counted at the layer boundaries, by span or counter name.
    counts: RefCell<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            unit: Cell::new(0),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans recorded from now on with `unit`.
    pub fn set_unit(&self, unit: u64) {
        self.unit.set(unit);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                unit: self.unit.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let result = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        result
    }

    /// Adds `n` to the work counted under `name` (a span name, or a
    /// counter of its own).
    pub fn add(&self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.borrow_mut().entry(name).or_insert(0) += n;
        }
    }

    /// The work counted under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.borrow().get(name).copied().unwrap_or(0)
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations of every span named `name`, in seconds, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The layer table: per span name, calls, the work counted under the
    /// name, self time (duration minus direct children), work per self
    /// second and share of `wall`, plus the unattributed remainder, so
    /// self times and remainder sum to `wall`. Returns the rendered table
    /// and the remainder.
    pub fn layer_table(&self, wall: f64) -> (String, f64) {
        let spans = self.spans.borrow();
        let mut child_secs = vec![0.0; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_secs[parent] += span.secs();
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut rows: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        let mut top_level = 0.0;
        for (span, children) in spans.iter().zip(&child_secs) {
            let row = rows.entry(span.name).or_insert_with(|| {
                order.push(span.name);
                (0, 0.0)
            });
            row.0 += 1;
            row.1 += span.secs() - children;
            if span.parent.is_none() {
                top_level += span.secs();
            }
        }
        let remainder = wall - top_level;
        let share = |secs: f64| 100.0 * secs / wall.max(1e-12);
        let mut table = String::new();
        let _ = writeln!(
            table,
            "traced layers (wall {wall:.6} s):\n  {:<16} {:>8} {:>12} {:>11} {:>14} {:>7}",
            "span", "calls", "work", "self s", "work/s", "share"
        );
        for name in order {
            let (calls, own) = rows[name];
            let (work, rate) = match self.count(name) {
                0 => ("-".to_string(), "-".to_string()),
                work => (
                    work.to_string(),
                    format!("{:.4e}", work as f64 / own.max(1e-12)),
                ),
            };
            let _ = writeln!(
                table,
                "  {name:<16} {calls:>8} {work:>12} {own:>11.6} {rate:>14} {:>6.2}%",
                share(own)
            );
        }
        let _ = write!(
            table,
            "  {:<16} {:>8} {:>12} {remainder:>11.6} {:>14} {:>6.2}%",
            "(remainder)",
            "",
            "",
            "",
            share(remainder)
        );
        (table, remainder)
    }

    /// Writes every span, one per line, to `.bench_out/spans-<workload>-seed<seed>.tsv`.
    pub fn dump(&self, out_dir: &Path, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(out_dir)?;
        let path = out_dir.join(format!("spans-{workload}-seed{seed}.tsv"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            file,
            "index\tname\tstart_ns\tend_ns\tparent\tworkload\tunit"
        )?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                file,
                "{i}\t{}\t{}\t{}\t{parent}\t{workload}\t{}",
                s.name, s.start_ns, s.end_ns, s.unit
            )?;
        }
        file.flush()?;
        Ok(path)
    }
}
