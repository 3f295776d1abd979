//! Shared JSON rendering of verification results.
//!
//! Reports serialize by hand through [`jsonio`]. This module is the
//! single source of truth for the JSON shape of a [`FileSummary`]: the
//! batch engine's cache file and the `webssari-serve` HTTP API both
//! render through it, so a summary written by one is readable by the
//! other.

use jsonio::Value;

use crate::report::{FileOutcome, FileReport, FileSummary, Vulnerability};

/// Serializes one [`Vulnerability`] group.
pub fn vulnerability_to_value(v: &Vulnerability) -> Value {
    Value::obj(vec![
        ("class", Value::str(v.class.clone())),
        ("root_var", Value::str(v.root_var.clone())),
        (
            "symptoms",
            Value::Arr(v.symptoms.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "funcs",
            Value::Arr(v.funcs.iter().cloned().map(Value::Str).collect()),
        ),
        ("parameterize", Value::Bool(v.parameterize)),
    ])
}

/// Parses [`vulnerability_to_value`]'s output back.
pub fn vulnerability_from_value(v: &Value) -> Option<Vulnerability> {
    Some(Vulnerability {
        class: v.get("class")?.as_str()?.to_owned(),
        root_var: v.get("root_var")?.as_str()?.to_owned(),
        symptoms: string_list(v.get("symptoms")?)?,
        funcs: string_list(v.get("funcs")?)?,
        // Absent in summaries written before the field existed.
        parameterize: matches!(v.get("parameterize"), Some(Value::Bool(true))),
    })
}

/// Serializes a [`FileSummary`].
pub fn summary_to_value(summary: &FileSummary) -> Value {
    let vulns: Vec<Value> = summary
        .vulnerabilities
        .iter()
        .map(vulnerability_to_value)
        .collect();
    Value::obj(vec![
        ("file", Value::str(summary.file.clone())),
        ("num_statements", Value::Num(summary.num_statements as u64)),
        ("ts_errors", Value::Num(summary.ts_errors as u64)),
        ("bmc_groups", Value::Num(summary.bmc_groups as u64)),
        (
            "counterexamples",
            Value::Num(summary.counterexamples as u64),
        ),
        ("vulnerabilities", Value::Arr(vulns)),
        ("outcome", Value::str(summary.outcome.as_str())),
    ])
}

/// Parses [`summary_to_value`]'s output back.
pub fn summary_from_value(value: &Value) -> Option<FileSummary> {
    let vulnerabilities = value
        .get("vulnerabilities")?
        .as_arr()?
        .iter()
        .map(vulnerability_from_value)
        .collect::<Option<Vec<_>>>()?;
    Some(FileSummary {
        file: value.get("file")?.as_str()?.to_owned(),
        num_statements: value.get("num_statements")?.as_u64()? as usize,
        ts_errors: value.get("ts_errors")?.as_u64()? as usize,
        bmc_groups: value.get("bmc_groups")?.as_u64()? as usize,
        counterexamples: value.get("counterexamples")?.as_u64()? as usize,
        vulnerabilities,
        outcome: FileOutcome::from_str_opt(value.get("outcome")?.as_str()?)?,
    })
}

/// Serializes a full [`FileReport`] as its summary plus the rendered
/// counterexample trace text — everything a remote caller can consume
/// without the in-memory IR.
pub fn report_to_value(report: &FileReport) -> Value {
    let Value::Obj(mut pairs) = summary_to_value(&report.summary()) else {
        unreachable!("summary_to_value returns an object");
    };
    pairs.push((
        "checked_assertions".to_owned(),
        Value::Num(report.bmc.checked_assertions as u64),
    ));
    pairs.push(("report_text".to_owned(), Value::str(report.render_text())));
    Value::Obj(pairs)
}

fn string_list(v: &Value) -> Option<Vec<String>> {
    v.as_arr()?
        .iter()
        .map(|s| s.as_str().map(str::to_owned))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verifier;

    fn sample_summary(file: &str, outcome: FileOutcome) -> FileSummary {
        FileSummary {
            file: file.to_owned(),
            num_statements: 4,
            ts_errors: 2,
            bmc_groups: 1,
            counterexamples: 2,
            vulnerabilities: vec![Vulnerability {
                class: "sqli".to_owned(),
                root_var: "sid".to_owned(),
                symptoms: vec!["a.php:3".to_owned(), "a.php:4".to_owned()],
                funcs: vec!["mysql_query".to_owned()],
                parameterize: outcome == FileOutcome::Vulnerable,
            }],
            outcome,
        }
    }

    #[test]
    fn summary_round_trips() {
        for outcome in [
            FileOutcome::Verified,
            FileOutcome::Vulnerable,
            FileOutcome::Timeout,
            FileOutcome::ParseError,
        ] {
            let summary = sample_summary("a.php", outcome);
            let value = summary_to_value(&summary);
            assert_eq!(summary_from_value(&value), Some(summary));
            // And through the wire format.
            let reparsed = jsonio::parse(&value.to_json()).unwrap();
            assert_eq!(summary_from_value(&reparsed).unwrap().outcome, outcome);
        }
    }

    #[test]
    fn report_value_extends_summary() {
        let report = Verifier::new()
            .verify_source("<?php echo $_GET['x'];", "f.php")
            .unwrap();
        let v = report_to_value(&report);
        assert_eq!(v.get("file").and_then(Value::as_str), Some("f.php"));
        assert_eq!(v.get("outcome").and_then(Value::as_str), Some("vulnerable"));
        assert!(v.get("checked_assertions").is_some());
        assert!(v
            .get("report_text")
            .and_then(Value::as_str)
            .is_some_and(|t| t.contains("== f.php ==")));
    }

    #[test]
    fn corrupt_values_parse_as_none() {
        assert_eq!(summary_from_value(&Value::Null), None);
        assert_eq!(
            summary_from_value(&Value::obj(vec![("file", Value::Num(3))])),
            None
        );
    }
}
