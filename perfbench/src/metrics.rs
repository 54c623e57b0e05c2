//! The metric catalogue (names and units, in `BENCHMARK.json` order),
//! the per-run metric set, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{self, Tally};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("req_per_s", "req/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parse.calls", "count"),
    ("parse.busy_ms", "ms"),
    ("parse.mib_per_s", "MiB/s"),
    ("scbd.calls", "count"),
    ("scbd.busy_ms", "ms"),
    ("scbd.us_per_call", "us"),
    ("scbd.too_tight", "count"),
    ("scbd.probe_calls", "count"),
    ("scbd.probe_busy_ms", "ms"),
    ("alloc.calls", "count"),
    ("alloc.busy_ms", "ms"),
    ("alloc.us_per_call", "us"),
    ("alloc.onchip_nodes", "count"),
    ("alloc.offchip_nodes", "count"),
    ("alloc.ns_per_node", "ns"),
    ("alloc.sweep_skips", "count"),
    ("alloc.dominance_cuts", "count"),
    ("alloc.exhausted", "count"),
    ("macp.calls", "count"),
    ("macp.busy_ms", "ms"),
    ("engine.workers", "count"),
    ("engine.points", "count"),
    ("engine.wall_ms", "ms"),
    ("engine.parallel_efficiency", "ratio"),
    ("cache.scbd.hits", "count"),
    ("cache.scbd.misses", "count"),
    ("cache.alloc.hits", "count"),
    ("cache.alloc.misses", "count"),
    ("cache.blocks.hits", "count"),
    ("cache.blocks.misses", "count"),
    ("cache.blocks.hits.variant", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.write_failures", "count"),
    ("cache.hit_call_us", "us"),
    ("cache.miss_call_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.render_us", "us"),
    ("serve.req_ms.hit", "ms"),
    ("serve.req_ms.variant", "ms"),
    ("serve.req_ms.fresh", "ms"),
    ("serve.cold_req_p50_ms", "ms"),
    ("serve.rows_streamed", "count"),
    ("serve.rejected", "count"),
    ("setup.profile_ms", "ms"),
    ("setup.boot_ms", "ms"),
    ("setup.warm_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The metrics one run measured: value and the sample count behind it.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Metrics {
    /// Records `name` (which must be in one of the catalogues).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not catalogued"
        );
        self.values.insert(name, (value, samples));
    }

    /// Records a count (one sample).
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.set(name, value as f64, 1);
    }

    /// Records the median of `values` under `name`, if there are any.
    pub fn median(&mut self, name: &'static str, values: &[f64]) {
        if let Some(m) = stats::median(values) {
            self.set(name, m, values.len());
        }
    }

    /// The end-to-end figures of an offline workload from its pass wall
    /// times: there, one pass is the unit a user waits for (a
    /// "request").
    pub fn offline_passes(&mut self, pass_s: &[f64], points_per_pass: usize) {
        let ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
        let rate: Vec<f64> = pass_s.iter().map(|s| 1.0 / s).collect();
        let points: Vec<f64> = rate.iter().map(|r| r * points_per_pass as f64).collect();
        self.median("points_per_s", &points);
        self.median("req_per_s", &rate);
        self.median("req_p50_ms", &ms);
        if let Some(p) = stats::percentile(&ms, 99.0) {
            self.set("req_p99_ms", p.value, p.samples);
        }
    }

    /// Records this process's peak resident set.
    pub fn peak_rss(&mut self) {
        if let Some(mib) = stats::peak_rss_mib() {
            self.set("peak_rss_mib", mib, 1);
        }
    }

    /// The human-readable table (one line per metric of `catalogue`)
    /// followed by the result line, or the name of a missing
    /// end-to-end metric.
    pub fn render(&self, catalogue: &[(&str, &str)], tally: Tally) -> Result<String, String> {
        let mut table = String::new();
        let mut json = String::new();
        for (name, unit) in catalogue {
            let (value, samples) = match self.values.get(name) {
                Some(&v) => v,
                None if catalogue == PER_LAYER => (0.0, 0),
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            let _ = writeln!(table, "{name:<28} {value:>16.6} {unit:<8} n={samples}");
            let sep = if json.is_empty() { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            table,
            "{:<28} {:>16.6} {:<8} n={}",
            "fail_frac",
            tally.fail_frac(),
            "ratio",
            tally.attempted
        );
        let _ = write!(
            table,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed
        );
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memx_serve::json::{self, Json};

    /// The catalogues above must list exactly what `BENCHMARK.json`
    /// declares, in the same order and with the same units.
    #[test]
    fn catalogues_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text.as_bytes()).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn result_line_is_last_and_carries_every_metric() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.25, 3);
        }
        let tally = Tally {
            attempted: 4,
            failed: 0,
        };
        let out = m.render(END_TO_END, tally).unwrap();
        let last = out.lines().last().unwrap();
        let doc = json::parse(last.as_bytes()).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(4));
        let metrics = doc.get("metrics").unwrap();
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));

        let mut partial = Metrics::default();
        partial.set("setup_s", 1.0, 1);
        assert!(partial.render(END_TO_END, tally).is_err());
        assert!(
            partial.render(PER_LAYER, tally).is_ok(),
            "layers default to 0"
        );
    }
}
