//! The traced pass's span ledger.
//!
//! Spans live in a `parp_telemetry::Tracer` (wall-clock microseconds
//! since the pass began; its Chrome trace-event export loads in
//! Perfetto) and per-layer distributions in `parp_telemetry::Histogram`s
//! of nanoseconds. Track 0 carries each exchange and its on-path steps;
//! track 1 carries the sub-stage probes, which run after the exchange on
//! the same inputs and so never count toward its total.

use parp_telemetry::{ArgValue, Histogram, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Residual layer: exchange total minus the sum of its on-path steps.
const RESIDUAL: &str = "net.residual";

/// One open exchange span.
pub struct Exchange {
    id: u64,
    name: &'static str,
    start: Instant,
    steps_ns: u64,
    last_ns: u64,
}

impl Exchange {
    /// Duration of the most recent step (ns).
    pub fn last_step_ns(&self) -> u64 {
        self.last_ns
    }
}

/// Spans and per-layer histograms of one traced pass.
pub struct Ledger {
    tracer: Tracer,
    origin: Instant,
    layers: BTreeMap<&'static str, Histogram>,
    next_id: u64,
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

impl Ledger {
    /// An empty ledger with recording live.
    pub fn new() -> Self {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.name_track(0, "exchange steps");
        tracer.name_track(1, "sub-stage probes");
        Ledger {
            tracer,
            origin: Instant::now(),
            layers: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Adds one sample of `ns` to `layer`.
    pub fn record(&mut self, layer: &'static str, ns: u64) {
        self.layers.entry(layer).or_default().record(ns);
    }

    fn span(&self, name: &str, tid: u32, start: Instant, ns: u64, id: u64, parent: &str) {
        self.tracer.span(
            name,
            if tid == 0 { "step" } else { "probe" },
            nanos(self.origin, start) / 1_000,
            ns / 1_000,
            tid,
            vec![
                ("exchange".to_string(), ArgValue::U64(id)),
                ("parent".to_string(), ArgValue::Str(parent.to_string())),
            ],
        );
    }

    /// Opens an exchange span.
    pub fn begin(&mut self, name: &'static str) -> Exchange {
        self.next_id += 1;
        Exchange {
            id: self.next_id,
            name,
            start: Instant::now(),
            steps_ns: 0,
            last_ns: 0,
        }
    }

    /// Runs one on-path step of `exchange` and records its span. The
    /// bookkeeping happens after the step's clock stops, so it lands in
    /// the exchange's residual.
    pub fn step<T>(
        &mut self,
        exchange: &mut Exchange,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let ns = nanos(start, Instant::now());
        exchange.steps_ns += ns;
        exchange.last_ns = ns;
        self.record(layer, ns);
        self.span(layer, 0, start, ns, exchange.id, exchange.name);
        out
    }

    /// Closes `exchange`, records its residual, and returns its total
    /// in nanoseconds.
    pub fn end(&mut self, exchange: Exchange) -> u64 {
        let total = nanos(exchange.start, Instant::now());
        self.record(RESIDUAL, total.saturating_sub(exchange.steps_ns));
        self.span(exchange.name, 0, exchange.start, total, exchange.id, "");
        total
    }

    /// Times one off-path probe of `layer` on track 1 and returns its
    /// output with its duration in nanoseconds.
    pub fn probe_with<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let ns = nanos(start, Instant::now());
        self.record(layer, ns);
        self.span(layer, 1, start, ns, self.next_id, "probe");
        (out, ns)
    }

    /// [`Ledger::probe_with`] for a probe whose output only needs to
    /// exist (it is kept from the optimiser, then dropped); returns the
    /// duration in nanoseconds.
    pub fn probe<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> u64 {
        self.probe_with(layer, f).1
    }

    /// Median of `layer` in microseconds, with its sample count.
    pub fn median_us(&self, layer: &str) -> Option<(f64, u64)> {
        let h = self.layers.get(layer)?;
        Some((h.quantile(0.5) as f64 / 1_000.0, h.count()))
    }

    /// Mean of `layer` in microseconds.
    pub fn mean_us(&self, layer: &str) -> Option<f64> {
        let h = self.layers.get(layer)?;
        Some(h.mean() / 1_000.0)
    }

    /// The Chrome trace-event JSON of every recorded span.
    pub fn export_chrome_json(&self) -> String {
        self.tracer.export_chrome_json()
    }
}
