//! Operation tally, named metrics and the result line.

use std::collections::BTreeMap;

/// Counts operations attempted and failed. An operation fails when it
/// errors, is refused, or returns a wrong answer.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Records one operation; `why` explains a failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(why());
            }
        }
    }

    pub fn fail(&mut self, why: String) {
        self.op(false, || why);
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Metrics by name, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// True when there is at least one metric and every value is a
    /// finite number.
    pub fn complete(&self) -> bool {
        !self.0.is_empty() && self.0.values().all(|(v, _)| v.is_finite())
    }

    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.0
            .iter()
            .map(|(name, (v, unit))| format!("{name:<44} {v:>14.4} {unit}"))
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// A non-finite value (a metric the run could not measure) is
    /// written as `null`.
    pub fn result_json(&self, correct: bool, tally: &Tally) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (v, unit))| {
                let value = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            body.join(", ")
        )
    }
}
