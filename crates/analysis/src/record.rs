//! JSON-lines export of experiment results.

use std::io::Write;

use serde_json::{json, Value};

/// One recorded experiment data point: the experiment id, its parameters
/// and its measured metrics, as free-form JSON objects.
///
/// The harness appends one record per table row to a `.jsonl` file so that
/// every number an experiment reports is regenerable and diffable.
///
/// # Example
///
/// ```
/// use renaming_analysis::ExperimentRecord;
/// use serde_json::json;
///
/// let rec = ExperimentRecord::new(
///     "e1",
///     json!({"n": 1024, "trials": 30}),
///     json!({"max_steps": 57.0}),
/// );
/// let mut buf = Vec::new();
/// rec.write_jsonl(&mut buf).unwrap();
/// let line = String::from_utf8(buf).unwrap();
/// assert!(line.contains("\"experiment\":\"e1\""));
/// assert!(line.ends_with('\n'));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment id (`e1`..`e14`, `a1`, `a2`, ...).
    pub experiment: String,
    /// The sweep point (n, k, epsilon, adversary, seed, ...).
    pub params: Value,
    /// The measured values.
    pub metrics: Value,
}

impl ExperimentRecord {
    /// Creates a record.
    pub fn new(experiment: impl Into<String>, params: Value, metrics: Value) -> Self {
        Self {
            experiment: experiment.into(),
            params,
            metrics,
        }
    }

    /// Serializes the record as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let line = json!({
            "experiment": &self.experiment,
            "params": &self.params,
            "metrics": &self.metrics,
        });
        writeln!(w, "{line}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_jsonl() {
        let records = vec![
            ExperimentRecord::new("e1", json!({"n": 8}), json!({"steps": 3})),
            ExperimentRecord::new("e2", json!({"n": 16}), json!({"steps": 4.5})),
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.write_jsonl(&mut buf).expect("write");
        }
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), records.len());
        for (line, r) in lines.iter().zip(&records) {
            let back: Value = serde_json::from_str(line).expect("parse");
            assert_eq!(
                back.get("experiment").and_then(Value::as_str),
                Some(&*r.experiment)
            );
            assert_eq!(back.get("params"), Some(&r.params));
            assert_eq!(back.get("metrics"), Some(&r.metrics));
        }
    }
}
