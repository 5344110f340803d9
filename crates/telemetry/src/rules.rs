//! Threshold rules and automated triggers.
//!
//! The TSDB "stores the metrics and rules established by these Monitor
//! Agents" and the Network Monitor Service "can initiate network
//! monitoring either based on user input or through automated triggers"
//! (§III-A). This module provides those triggers: sustained-threshold
//! rules with hysteresis and cooldown, evaluated against a [`Tsdb`] —
//! an alternative Busy-node detection path (e.g. "CPU above 80 % for
//! 30 s"). This is a library-only extension: neither `dust-proto` nor
//! `dust-sim` calls it; Busy detection there reads the STAT stream.

use crate::tsdb::Tsdb;

/// Direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// Fire while the value is strictly above the threshold.
    Above,
    /// Fire while the value is strictly below the threshold.
    Below,
}

impl Comparison {
    fn matches(self, value: f64, threshold: f64) -> bool {
        match self {
            Comparison::Above => value > threshold,
            Comparison::Below => value < threshold,
        }
    }
}

/// A sustained-threshold rule over one series.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (alert identifier).
    pub name: String,
    /// Series the rule watches.
    pub series: String,
    /// Crossing direction.
    pub comparison: Comparison,
    /// Threshold value.
    pub threshold: f64,
    /// The condition must hold continuously for this long before firing
    /// (0 = fire on the first matching sample).
    pub sustain_ms: u64,
    /// Minimum quiet time between consecutive alerts of this rule.
    pub cooldown_ms: u64,
}

impl Rule {
    /// A rule firing as soon as one sample crosses.
    pub fn instant(name: &str, series: &str, comparison: Comparison, threshold: f64) -> Self {
        Rule {
            name: name.to_string(),
            series: series.to_string(),
            comparison,
            threshold,
            sustain_ms: 0,
            cooldown_ms: 0,
        }
    }
}

/// A fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the rule that fired.
    pub rule: String,
    /// Time the alert fired, ms.
    pub at_ms: u64,
    /// The sample value that completed the sustained condition.
    pub value: f64,
}

/// Per-rule evaluation state.
#[derive(Debug, Clone, Default)]
struct RuleState {
    /// Start of the current continuous violation, if any.
    violating_since: Option<u64>,
    /// Last time this rule fired.
    last_fired: Option<u64>,
    /// Timestamp up to which samples were already consumed.
    cursor_ms: u64,
}

/// Evaluates a set of rules incrementally against a node-local TSDB.
#[derive(Debug, Clone, Default)]
pub struct RuleEngine {
    rules: Vec<Rule>,
    states: Vec<RuleState>,
}

impl RuleEngine {
    /// An engine with no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a rule.
    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
        self.states.push(RuleState::default());
    }

    /// Registered rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Evaluate all rules over samples in `(cursor, now]`, firing alerts.
    /// Evaluation is incremental: each call consumes only new samples, so
    /// calling repeatedly with a growing TSDB never re-fires on old data
    /// (except through legitimate new violations after cooldown). A
    /// `now_ms` at or before a rule's cursor sees no samples and leaves the
    /// cursor where it was.
    pub fn evaluate(&mut self, db: &Tsdb, now_ms: u64) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for (rule, st) in self.rules.iter().zip(self.states.iter_mut()) {
            let Some(series) = db.series(&rule.series) else {
                continue;
            };
            // consume samples after the cursor up to and including now
            for p in series.range(st.cursor_ms, now_ms.saturating_add(1)) {
                if rule.comparison.matches(p.value, rule.threshold) {
                    let since = *st.violating_since.get_or_insert(p.ts_ms);
                    let sustained = p.ts_ms.saturating_sub(since) >= rule.sustain_ms;
                    let cooled =
                        st.last_fired.is_none_or(|t| p.ts_ms.saturating_sub(t) >= rule.cooldown_ms);
                    if sustained && cooled {
                        st.last_fired = Some(p.ts_ms);
                        alerts.push(Alert {
                            rule: rule.name.clone(),
                            at_ms: p.ts_ms,
                            value: p.value,
                        });
                    }
                } else {
                    st.violating_since = None;
                }
            }
            st.cursor_ms = st.cursor_ms.max(now_ms.saturating_add(1));
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with(series: &str, pts: &[(u64, f64)]) -> Tsdb {
        let mut db = Tsdb::new();
        for &(t, v) in pts {
            db.append(series, t, v);
        }
        db
    }

    fn busy_rule(sustain_ms: u64, cooldown_ms: u64) -> Rule {
        Rule {
            name: "busy".into(),
            series: "cpu".into(),
            comparison: Comparison::Above,
            threshold: 80.0,
            sustain_ms,
            cooldown_ms,
        }
    }

    #[test]
    fn instant_rule_fires_on_first_crossing() {
        let db = db_with("cpu", &[(0, 50.0), (1000, 85.0), (2000, 60.0)]);
        let mut e = RuleEngine::new();
        e.add_rule(Rule::instant("busy", "cpu", Comparison::Above, 80.0));
        let alerts = e.evaluate(&db, 3000);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].at_ms, 1000);
        assert_eq!(alerts[0].value, 85.0);
    }

    #[test]
    fn sustain_requires_continuous_violation() {
        // crosses at 1000 but dips at 2000: the 3-second sustain never
        // completes until the second streak (4000..7000)
        let db = db_with(
            "cpu",
            &[(1000, 90.0), (2000, 50.0), (4000, 90.0), (5000, 91.0), (6000, 92.0), (7000, 93.0)],
        );
        let mut e = RuleEngine::new();
        e.add_rule(busy_rule(3000, 0));
        let alerts = e.evaluate(&db, 10_000);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].at_ms, 7000);
    }

    #[test]
    fn cooldown_limits_alert_rate() {
        let pts: Vec<(u64, f64)> = (0..10).map(|i| (i * 1000, 95.0)).collect();
        let db = db_with("cpu", &pts);
        let mut e = RuleEngine::new();
        e.add_rule(busy_rule(0, 4000));
        let alerts = e.evaluate(&db, 20_000);
        // fires at 0, 4000, 8000
        let times: Vec<u64> = alerts.iter().map(|a| a.at_ms).collect();
        assert_eq!(times, vec![0, 4000, 8000]);
    }

    #[test]
    fn incremental_evaluation_does_not_refire() {
        let mut db = db_with("cpu", &[(0, 95.0)]);
        let mut e = RuleEngine::new();
        e.add_rule(busy_rule(0, 0));
        assert_eq!(e.evaluate(&db, 1000).len(), 1);
        // same data, later evaluation: nothing new
        assert_eq!(e.evaluate(&db, 2000).len(), 0);
        // a new violating sample fires again (no cooldown)
        db.append("cpu", 3000, 96.0);
        assert_eq!(e.evaluate(&db, 3000).len(), 1);
    }

    #[test]
    fn below_rules_work() {
        let db = db_with("free-mem", &[(0, 50.0), (1000, 5.0)]);
        let mut e = RuleEngine::new();
        e.add_rule(Rule::instant("oom-risk", "free-mem", Comparison::Below, 10.0));
        let alerts = e.evaluate(&db, 2000);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "oom-risk");
    }

    #[test]
    fn missing_series_is_silent() {
        let db = Tsdb::new();
        let mut e = RuleEngine::new();
        e.add_rule(busy_rule(0, 0));
        assert!(e.evaluate(&db, 1000).is_empty());
    }

    #[test]
    fn multiple_rules_independent() {
        let mut db = db_with("cpu", &[(0, 95.0)]);
        db.append("mem", 0, 5.0);
        let mut e = RuleEngine::new();
        e.add_rule(busy_rule(0, 0));
        e.add_rule(Rule::instant("low-mem", "mem", Comparison::Below, 10.0));
        let alerts = e.evaluate(&db, 1000);
        assert_eq!(alerts.len(), 2);
        let names: Vec<&str> = alerts.iter().map(|a| a.rule.as_str()).collect();
        assert!(names.contains(&"busy") && names.contains(&"low-mem"));
    }

    #[test]
    fn boundary_value_does_not_fire_above() {
        let db = db_with("cpu", &[(0, 80.0)]);
        let mut e = RuleEngine::new();
        e.add_rule(busy_rule(0, 0));
        assert!(e.evaluate(&db, 100).is_empty(), "Above is strict");
    }

    #[test]
    fn an_earlier_now_sees_nothing_and_keeps_the_cursor() {
        let mut db = db_with("cpu", &[(1000, 95.0), (2000, 96.0)]);
        let mut e = RuleEngine::new();
        e.add_rule(busy_rule(0, 0));
        assert_eq!(e.evaluate(&db, 2000).len(), 2);
        // the clock steps back: the window (cursor, now] is inverted
        assert!(e.evaluate(&db, 500).is_empty());
        // the cursor did not move back with it, so nothing old re-fires
        assert!(e.evaluate(&db, 2000).is_empty());
        db.append("cpu", 3000, 97.0);
        let alerts = e.evaluate(&db, 3000);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].at_ms, 3000);
    }
}
