//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's contract with `BENCHMARK.json`
//! (a test checks that both name the same metrics with the same units). Every
//! workload reports every metric of the table its mode prints; a per-layer
//! metric of a layer a workload never calls reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("tok_per_s", "tok/s"),
    ("accept_len", "tok/step"),
    ("completed_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("obs.traced_wall_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("untimed.share", "share"),
    ("model.init_s", "s"),
    ("workload.tasks_s", "s"),
    ("rollout.s", "s"),
    ("rollout.calls", "count"),
    ("rollout.us_per_tok", "us/tok"),
    ("rollout.target_steps", "count"),
    ("rollout.us_per_target_step", "us/step"),
    ("rollout.share", "share"),
    ("rollout.sd_rounds", "count"),
    ("model.decode_steps", "count"),
    ("model.prefill_tokens", "count"),
    ("draft.features_s", "s"),
    ("draft.train_s", "s"),
    ("draft.train_iters", "count"),
    ("draft.ms_per_iter", "ms/iter"),
    ("draft.eval_s", "s"),
    ("draft.share", "share"),
    ("draft.top3", "share"),
    ("rl.update_s", "s"),
    ("rl.update_tok_per_s", "tok/s"),
    ("rl.share", "share"),
    ("trace.decode_ns_per_req", "ns/req"),
    ("trace.share", "share"),
    ("serve.advance_ns_per_req", "ns/req"),
    ("serve.advance_share", "share"),
    ("serve.advance_growth", "ratio"),
    ("serve.offer_ns_per_req", "ns/req"),
    ("serve.drain_s", "s"),
    ("serve.report_s", "s"),
    ("serve.events_per_req", "events/req"),
    ("serve.stale_event_share", "share"),
    ("serve.utilization", "share"),
    ("serve.sd_step_fraction", "share"),
    ("serve.preemptions", "count"),
    ("serve.prefix_hit_rate", "share"),
    ("serve.pool_utilization", "share"),
    ("serve.goodput_rps", "req/s"),
    ("serve.slo_attainment", "share"),
    ("serve.ttft_p99_s", "s"),
    ("serve.tpot_p99_s", "s"),
    ("transfer.migrations", "count"),
    ("transfer.busy_share", "share"),
    ("transfer.mean_s", "s"),
    ("cluster.scale_ups", "count"),
    ("cluster.scale_downs", "count"),
    ("cluster.avg_active_replicas", "count"),
    ("cluster.goodput_per_replica", "req/s"),
    ("workload.requests", "count"),
    ("workload.tokens", "count"),
];

/// Named metric values of one run.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Per-metric median over several runs' values.
    pub fn median_of(runs: &[Values]) -> Values {
        let mut out = Values::default();
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            let mut xs: Vec<f64> = runs.iter().filter_map(|v| v.get(name)).collect();
            if !xs.is_empty() {
                out.set(name, median(&mut xs));
            }
        }
        out
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Renders `table` from `values` as an aligned text table and the JSON
/// result line. Per-layer metrics a workload never touched read 0; a missing
/// end-to-end metric or any non-finite value is an error.
pub fn render(
    table: &[(&'static str, &'static str)],
    values: &Values,
    zero_missing: bool,
    attempted: u64,
    failed: u64,
) -> Result<(String, String), String> {
    let mut text = String::new();
    let mut json = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match values.get(name) {
            Some(v) => v,
            None if zero_missing => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        text.push_str(&format!("{name:<30} {value:>18.6} {unit}\n"));
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let line = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    Ok((text, line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn render_rejects_missing_end_to_end_and_zeroes_missing_layers() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        assert!(render(&END_TO_END, &v, false, 1, 0).is_err());
        let (_, line) = render(&PER_LAYER, &Values::default(), true, 3, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"rollout.s\": {\"value\": 0, \"unit\": \"s\"}"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
