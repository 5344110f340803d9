//! Metrics registry: monotonic counters, gauges, histograms.
//!
//! Code writes the registry ([`MetricsRegistry::counter_add`],
//! [`MetricsRegistry::gauge_set`], [`MetricsRegistry::observe`]), reads
//! it back by name, and renders it ([`MetricsRegistry::to_text`],
//! [`MetricsRegistry::to_json`], [`MetricsRegistry::to_prometheus`]). A
//! copy is a `clone()`. All maps are `BTreeMap`s, so every rendering is
//! byte-stable regardless of the order names were first recorded in.

use crate::hist::Histogram;
use std::collections::BTreeMap;

/// Counters, gauges, and histograms keyed by dotted names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `n` to a monotonic counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        with_slot(&mut self.counters, name, |c| *c += n);
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        with_slot(&mut self.gauges, name, |g| *g = v);
    }

    /// Record one sample into a named histogram.
    pub fn observe(&mut self, name: &str, v: f64) {
        with_slot(&mut self.histograms, name, |h| h.record(v));
    }

    /// Record every sample of `values` into a named histogram: the same
    /// registry as one [`MetricsRegistry::observe`] per value (so an empty
    /// slice creates nothing), for one name search.
    pub(crate) fn observe_all(&mut self, name: &str, values: &[f64]) {
        if !values.is_empty() {
            with_slot(&mut self.histograms, name, |h| values.iter().for_each(|&v| h.record(v)));
        }
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Stable line-oriented text encoding:
    ///
    /// ```text
    /// counter proto.offers_sent 12
    /// gauge cost.workers 4
    /// hist lp.transport.pivots count=5 min=2 max=9 sum=27 buckets=141:3,145:2
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge {k} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("hist {k} {}\n", h.encode()));
        }
        out
    }

    /// Prometheus text exposition (format 0.0.4). Dotted names are
    /// sanitized to `[a-zA-Z0-9_]` and prefixed `dust_`; histograms are
    /// rendered as cumulative `_bucket{le="..."}` series over the
    /// non-empty log-scale buckets plus the mandatory `+Inf` bucket,
    /// then `_sum` and `_count`, as the text format requires. Output is
    /// byte-stable per registry state like every other encoding here.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 5);
            out.push_str("dust_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
            }
            out
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", prom_f64(*v)));
        }
        for (k, h) in &self.histograms {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (_, _, hi, c) in h.nonzero_buckets() {
                cumulative += c;
                if hi.is_finite() {
                    out.push_str(&format!("{n}_bucket{{le=\"{hi}\"}} {cumulative}\n"));
                }
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{n}_sum {}\n", prom_f64(h.sum())));
            out.push_str(&format!("{n}_count {}\n", h.count()));
        }
        out
    }

    /// Stable JSON encoding (sorted keys, shortest-roundtrip floats).
    /// Histograms are summarized as count/min/max/p50/p99 plus sparse
    /// buckets. Suitable for byte-for-byte diffing across runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_entries(&mut out, self.counters.iter().map(|(k, v)| (k, v.to_string())));
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter().map(|(k, v)| (k, json_f64(*v))));
        out.push_str("},\"histograms\":{");
        push_entries(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                let mut v = format!("{{\"count\":{}", h.count());
                if let (Some(mn), Some(mx)) = (h.min(), h.max()) {
                    v.push_str(&format!(",\"min\":{},\"max\":{}", json_f64(mn), json_f64(mx)));
                    let p50 = h.quantile(0.5).unwrap();
                    let p99 = h.quantile(0.99).unwrap();
                    v.push_str(&format!(",\"p50\":{},\"p99\":{}", json_f64(p50), json_f64(p99)));
                }
                v.push_str(",\"buckets\":{");
                let mut first = true;
                for (i, _, _, c) in h.nonzero_buckets() {
                    if !first {
                        v.push(',');
                    }
                    v.push_str(&format!("\"{i}\":{c}"));
                    first = false;
                }
                v.push_str("}}");
                (k, v)
            }),
        );
        out.push_str("}}");
        out
    }
}

/// Apply `f` to `map[name]`, inserting the default first when absent.
/// Metric calls sit on hot paths, so the name is looked up borrowed and
/// only copied to the heap the first time it is seen.
fn with_slot<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// JSON-safe float rendering (JSON has no inf/nan literals).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prometheus float rendering: the text format spells the non-finite
/// values `NaN`, `+Inf` and `-Inf` (and has no `null`).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

fn push_entries<'a>(out: &mut String, it: impl Iterator<Item = (&'a String, String)>) {
    let mut first = true;
    for (k, v) in it {
        if !first {
            out.push(',');
        }
        // names are code-controlled dotted identifiers; escape the two
        // characters that could break the framing anyway
        let k = k.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!("\"{k}\":{v}"));
        first = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_default_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.counter_add("x", 2);
        m.counter_add("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn observe_all_equals_one_observe_per_value() {
        let values = [3.0, -1.5, 0.0, 900.5, 3.0, 1e-9];
        let mut one_by_one = MetricsRegistry::new();
        let mut batched = MetricsRegistry::new();
        for v in values {
            one_by_one.observe("h", v);
        }
        // split across calls, in recording order
        batched.observe_all("h", &values[..3]);
        batched.observe_all("h", &values[3..]);
        batched.observe_all("never", &[]);
        assert_eq!(batched, one_by_one);
        assert_eq!(batched.to_text(), one_by_one.to_text());
        assert!(batched.histogram("never").is_none(), "an empty batch creates nothing");
    }

    #[test]
    fn gauges_keep_the_last_write() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge("g"), None);
        m.gauge_set("g", 4.0);
        m.gauge_set("g", -2.5);
        assert_eq!(m.gauge("g"), Some(-2.5));
    }

    #[test]
    fn prometheus_exposition_is_stable_and_sanitized() {
        let mut m = MetricsRegistry::new();
        m.counter_add("proto.offers_sent", 3);
        m.gauge_set("sim.active_transfers", 2.0);
        m.observe("span.offer_ms", 20.0);
        m.observe("span.offer_ms", 40.0);
        let p = m.to_prometheus();
        assert_eq!(p, m.to_prometheus(), "exposition must be byte-stable");
        assert!(p.contains("# TYPE dust_proto_offers_sent counter\ndust_proto_offers_sent 3\n"));
        assert!(p.contains("# TYPE dust_sim_active_transfers gauge\ndust_sim_active_transfers 2\n"));
        assert!(p.contains("# TYPE dust_span_offer_ms histogram\n"));
        assert!(p.contains("dust_span_offer_ms_bucket{le=\"+Inf\"} 2\n"));
        assert!(p.contains("dust_span_offer_ms_sum 60\n"));
        assert!(p.contains("dust_span_offer_ms_count 2\n"));
        // cumulative bucket counts must be nondecreasing and end at count
        let mut last = 0u64;
        for line in p.lines().filter(|l| l.contains("_bucket{le=")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative counts regressed: {line}");
            last = v;
        }
        assert_eq!(last, 2);
    }

    #[test]
    fn prometheus_exposition_conforms_to_the_text_format() {
        // lint-style pass over the whole exposition, checking the
        // invariants promtool's `check metrics` would: every sample name
        // matches the metric-name grammar, every metric is TYPE-declared
        // before its first sample, histograms carry _sum and _count,
        // the +Inf bucket equals _count, and cumulative buckets never
        // decrease, and every sample value is a float the format accepts.
        // Runs against a registry with all three kinds and awkward inputs
        // (negative + fractional samples, dotted names, non-finite gauges).
        let mut m = MetricsRegistry::new();
        m.counter_add("proto.offers_sent", 3);
        m.gauge_set("sim.active-transfers", 2.5);
        m.gauge_set("core.gap_nan", f64::NAN);
        m.gauge_set("core.gap_pos_inf", f64::INFINITY);
        m.gauge_set("core.gap_neg_inf", f64::NEG_INFINITY);
        for v in [0.1, 7.25, -2.0, 1e9, 0.0] {
            m.observe("span.offer_ms", v);
        }
        m.observe("lp.pivots", 41.0);
        let p = m.to_prometheus();
        let name_ok = |n: &str| {
            !n.is_empty()
                && !n.starts_with(|c: char| c.is_ascii_digit())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut declared: Vec<(String, String)> = Vec::new(); // (name, type)
        let mut inf_buckets: BTreeMap<String, u64> = BTreeMap::new();
        let mut sums: Vec<String> = Vec::new();
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut cumulative: BTreeMap<String, u64> = BTreeMap::new();
        for line in p.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, ty) = rest.split_once(' ').expect("TYPE line shape");
                assert!(name_ok(name), "bad metric name {name:?}");
                assert!(["counter", "gauge", "histogram"].contains(&ty), "{ty}");
                declared.push((name.to_string(), ty.to_string()));
                continue;
            }
            assert!(!line.starts_with('#'), "only TYPE comments expected: {line}");
            let (sample, value) = line.rsplit_once(' ').expect("sample line shape");
            let float_ok = matches!(value, "NaN" | "+Inf" | "-Inf")
                || value.parse::<f64>().is_ok_and(f64::is_finite);
            assert!(float_ok, "sample value is not a Prometheus float: {line}");
            let bare = sample.split('{').next().unwrap();
            assert!(name_ok(bare), "bad sample name {bare:?}");
            let base = bare
                .strip_suffix("_bucket")
                .or_else(|| bare.strip_suffix("_sum"))
                .or_else(|| bare.strip_suffix("_count"))
                .filter(|b| declared.iter().any(|(n, t)| n == b && t == "histogram"))
                .unwrap_or(bare);
            assert!(
                declared.iter().any(|(n, _)| n == base),
                "sample {sample} before/without its TYPE declaration"
            );
            if bare.ends_with("_bucket") {
                let v: u64 = value.parse().expect("bucket counts are integers");
                let prev = cumulative.entry(base.to_string()).or_insert(0);
                assert!(v >= *prev, "cumulative bucket regressed: {line}");
                *prev = v;
                if sample.contains("le=\"+Inf\"") {
                    inf_buckets.insert(base.to_string(), v);
                }
            } else if bare.ends_with("_sum") && base != bare {
                let _: f64 = value.parse().expect("sum is a float");
                sums.push(base.to_string());
            } else if bare.ends_with("_count") && base != bare {
                counts.insert(base.to_string(), value.parse().expect("count is an integer"));
            }
        }
        let histograms: Vec<&String> =
            declared.iter().filter(|(_, t)| t == "histogram").map(|(n, _)| n).collect();
        assert_eq!(histograms.len(), 2);
        for h in histograms {
            assert!(sums.contains(h), "{h} missing _sum");
            let count = counts.get(h).unwrap_or_else(|| panic!("{h} missing _count"));
            assert_eq!(inf_buckets.get(h), Some(count), "{h}: +Inf bucket != _count");
        }
        // the _sum value is the samples' sum in recording order
        assert!(p.contains("dust_span_offer_ms_sum 1000000005.35\n"), "{p}");
        assert!(p.contains("dust_core_gap_nan NaN\n"), "{p}");
        assert!(p.contains("dust_core_gap_pos_inf +Inf\n"), "{p}");
        assert!(p.contains("dust_core_gap_neg_inf -Inf\n"), "{p}");
        // JSON keeps its `null`: it has no spelling for the non-finite values
        assert!(m.to_json().contains("\"core.gap_nan\":null"));
    }

    #[test]
    fn expositions_are_pinned() {
        // every byte of both expositions; the histogram's samples are
        // dyadic, so its sum is exact however it is accumulated
        let mut m = MetricsRegistry::new();
        m.counter_add("proto.offers_sent", 3);
        m.counter_add("sim.transfers_applied", 12);
        m.gauge_set("cost.workers", 2.0);
        m.gauge_set("core.gap_nan", f64::NAN);
        m.gauge_set("core.gap_pos_inf", f64::INFINITY);
        m.gauge_set("core.gap_neg_inf", f64::NEG_INFINITY);
        for v in [0.5, 20.0, 40.0, 1e6, 2f64.powi(-30)] {
            m.observe("span.offer_ms", v);
        }
        assert_eq!(
            m.to_json(),
            concat!(
                r#"{"counters":{"proto.offers_sent":3,"sim.transfers_applied":12},"#,
                r#""gauges":{"core.gap_nan":null,"core.gap_neg_inf":null,"#,
                r#""core.gap_pos_inf":null,"cost.workers":2},"#,
                r#""histograms":{"span.offer_ms":{"count":5,"#,
                r#""min":0.0000000009313225746154785,"max":1000000,"p50":24,"p99":1000000,"#,
                r#""buckets":{"137":1,"253":1,"274":1,"278":1,"336":1}}}}"#,
            )
        );
        assert_eq!(
            m.to_prometheus(),
            "# TYPE dust_proto_offers_sent counter\n\
             dust_proto_offers_sent 3\n\
             # TYPE dust_sim_transfers_applied counter\n\
             dust_sim_transfers_applied 12\n\
             # TYPE dust_core_gap_nan gauge\n\
             dust_core_gap_nan NaN\n\
             # TYPE dust_core_gap_neg_inf gauge\n\
             dust_core_gap_neg_inf -Inf\n\
             # TYPE dust_core_gap_pos_inf gauge\n\
             dust_core_gap_pos_inf +Inf\n\
             # TYPE dust_cost_workers gauge\n\
             dust_cost_workers 2\n\
             # TYPE dust_span_offer_ms histogram\n\
             dust_span_offer_ms_bucket{le=\"0.0000000011641532182693481\"} 1\n\
             dust_span_offer_ms_bucket{le=\"0.625\"} 2\n\
             dust_span_offer_ms_bucket{le=\"24\"} 3\n\
             dust_span_offer_ms_bucket{le=\"48\"} 4\n\
             dust_span_offer_ms_bucket{le=\"1048576\"} 5\n\
             dust_span_offer_ms_bucket{le=\"+Inf\"} 5\n\
             dust_span_offer_ms_sum 1000060.5000000009\n\
             dust_span_offer_ms_count 5\n"
        );
    }

    #[test]
    fn json_is_stable_and_sorted() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z", 1);
        m.counter_add("a", 2);
        let j = m.to_json();
        assert!(j.find("\"a\":2").unwrap() < j.find("\"z\":1").unwrap());
        assert_eq!(j, m.to_json());
    }
}
