//! Derived metrics and the result line.

use lhr_util::json::{Json, ToJson};

/// Share of requested bytes that did not come from the origin, %.
pub fn origin_offload_pct(wan_bytes: f64, requested_bytes: f64) -> f64 {
    if requested_bytes <= 0.0 {
        return 100.0;
    }
    (1.0 - wan_bytes / requested_bytes) * 100.0
}

/// Bytes fetched from the origin, recovered from a report's average WAN
/// rate over the trace duration (`wan_gbps = bytes · 8 / duration / 10⁹`).
pub fn wan_bytes(wan_gbps: f64, duration_secs: f64) -> f64 {
    wan_gbps * 1e9 / 8.0 * duration_secs.max(1e-9)
}

/// Error responses as a share of measured requests, %.
pub fn error_pct(availability_pct: f64) -> f64 {
    100.0 - availability_pct
}

/// The ROADMAP's "effective throughput": requests served from the cache
/// per second, reported beside its two factors, never in place of them.
pub fn hits_per_s(throughput_rps: f64, hit_pct: f64) -> f64 {
    throughput_rps * hit_pct / 100.0
}

/// How much slower `with` ran than `without`, % (min-of-N wall times).
pub fn overhead_pct(without_secs: f64, with_secs: f64) -> f64 {
    if without_secs <= 0.0 {
        return 0.0;
    }
    (with_secs / without_secs - 1.0) * 100.0
}

/// Largest over mean; 1.0 is perfectly even, and so is an empty or all-zero
/// load.
pub fn imbalance(loads: &[f64]) -> f64 {
    let total: f64 = loads.iter().sum();
    if loads.is_empty() || total <= 0.0 {
        return 1.0;
    }
    let max = loads.iter().copied().fold(f64::MIN, f64::max);
    max / (total / loads.len() as f64)
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest value; 0 when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// A non-finite value (never valid JSON) is written as `null`; the caller
/// fails the run for it.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                Json::Float(m.value)
            } else {
                Json::Null
            };
            let entry = vec![
                ("value".to_string(), value),
                ("unit".to_string(), m.unit.to_json()),
            ];
            (m.name.to_string(), Json::Object(entry))
        })
        .collect();
    Json::Object(vec![
        ("correct".to_string(), correct.to_json()),
        ("attempted".to_string(), attempted.to_json()),
        ("failed".to_string(), failed.to_json()),
        ("metrics".to_string(), Json::Object(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_offload_follows_wan_bytes() {
        assert_eq!(origin_offload_pct(0.0, 1_000.0), 100.0);
        assert_eq!(origin_offload_pct(250.0, 1_000.0), 75.0);
        assert_eq!(origin_offload_pct(1_000.0, 1_000.0), 0.0);
        assert_eq!(origin_offload_pct(0.0, 0.0), 100.0);
    }

    #[test]
    fn wan_bytes_inverts_the_reported_rate() {
        // 10^9 bytes over 8 s is exactly 1 Gbps.
        let bytes = wan_bytes(1.0, 8.0);
        assert!((bytes - 1e9).abs() < 1e-3);
        assert_eq!(origin_offload_pct(wan_bytes(1.0, 8.0), 4e9), 75.0);
    }

    #[test]
    fn error_pct_complements_availability() {
        assert_eq!(error_pct(100.0), 0.0);
        assert!((error_pct(99.97) - 0.03).abs() < 1e-9);
    }

    #[test]
    fn hits_per_s_is_throughput_times_hit_ratio() {
        assert_eq!(hits_per_s(1_000_000.0, 40.0), 400_000.0);
        assert_eq!(hits_per_s(1_000_000.0, 0.0), 0.0);
    }

    #[test]
    fn overhead_and_imbalance() {
        assert_eq!(overhead_pct(2.0, 2.5), 25.0);
        assert_eq!(overhead_pct(0.0, 1.0), 0.0);
        assert_eq!(imbalance(&[1.0, 1.0]), 1.0);
        assert_eq!(imbalance(&[3.0, 1.0]), 1.5);
        assert_eq!(imbalance(&[]), 1.0);
    }

    #[test]
    fn median_and_min() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_result_keys() {
        let line = result_line(true, 3, 0, &[metric("setup_s", "s", 0.8127)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
        let nan = result_line(false, 1, 1, &[metric("x", "s", f64::NAN)]);
        assert!(Json::parse(&nan).is_ok() && nan.contains("null"));
    }
}
