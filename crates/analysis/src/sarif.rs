//! SARIF 2.1.0 export for lint diagnostics.
//!
//! The writer goes through [`jsonio`] (the workspace's shared JSON
//! model), emitting the minimal valid subset editors and CI annotators
//! consume: `$schema`/`version`, one run with a tool driver carrying
//! the full rule table, and one `result` per diagnostic with `ruleId`,
//! `level`, `message.text`, and a physical location. Diagnostics that
//! carry a def-use witness ([`Diagnostic::steps`]) additionally get a
//! `codeFlows` entry — one `threadFlow` whose locations trace the
//! taint from source to sink — which SARIF viewers render as a
//! step-through path. Files the lint pass could not analyze (parse
//! errors, include failures, nesting bounds) are reported in the run's
//! one `invocation`: `executionSuccessful` is false and each skipped
//! file gets an error-level `toolExecutionNotification` naming it, so
//! an unanalyzed file never reads as clean. With no skipped file the
//! run carries no `invocations` at all.

use jsonio::Value;

use crate::lint::{Diagnostic, FlowStep, RULES};

/// The SARIF schema URI embedded in every report.
pub const SARIF_SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// One-line documentation per rule id, for the driver's rule table.
fn rule_description(rule: &str) -> &'static str {
    match rule {
        "unsanitized-sink" => "Tainted data may reach a sensitive output channel.",
        "sql-concat-injection" => {
            "Tainted data is concatenated into SQL query text instead of being bound at a \
             parameterized position."
        }
        "stored-taint-flow" => {
            "A sink is reachable from a cross-request store read whose writers may be tainted \
             (second-order flow)."
        }
        "tainted-include" => "A dynamic include/require path may be attacker-controlled.",
        "dead-sanitizer" => "A sanitizer's result never reaches any sensitive output channel.",
        "flow-unreachable-sink" => {
            "A sensitive output channel is unreachable: every path to it exits first."
        }
        "unreachable-after-stop" => "Code after exit/return in the same block never executes.",
        "recursion-cutoff-approximation" => {
            "A call degraded to the join-of-arguments approximation at the inlining depth cutoff."
        }
        _ => "Unknown rule.",
    }
}

/// Builds the SARIF 2.1.0 document for a set of diagnostics and the
/// files that were skipped, as `(file, reason)` pairs.
pub fn to_sarif(diags: &[Diagnostic], skipped: &[(String, String)]) -> Value {
    let rules = RULES
        .iter()
        .map(|id| {
            Value::obj(vec![
                ("id", Value::str(*id)),
                (
                    "shortDescription",
                    Value::obj(vec![("text", Value::str(rule_description(id)))]),
                ),
            ])
        })
        .collect();
    let mut run = vec![(
        "tool",
        Value::obj(vec![(
            "driver",
            Value::obj(vec![
                ("name", Value::str("webssari")),
                ("rules", Value::Arr(rules)),
            ]),
        )]),
    )];
    if !skipped.is_empty() {
        run.push(("invocations", invocations(skipped)));
    }
    run.push(("results", Value::Arr(diags.iter().map(result).collect())));
    Value::obj(vec![
        ("$schema", Value::str(SARIF_SCHEMA)),
        ("version", Value::str("2.1.0")),
        ("runs", Value::Arr(vec![Value::obj(run)])),
    ])
}

/// Renders the SARIF document as a JSON string.
pub fn to_sarif_json(diags: &[Diagnostic], skipped: &[(String, String)]) -> String {
    to_sarif(diags, skipped).to_json()
}

/// The run's one unsuccessful `invocation`, with an error-level
/// notification per skipped file.
fn invocations(skipped: &[(String, String)]) -> Value {
    let notifications = skipped
        .iter()
        .map(|(file, reason)| {
            Value::obj(vec![
                ("level", Value::str("error")),
                ("message", Value::obj(vec![("text", Value::str(reason))])),
                (
                    "locations",
                    Value::Arr(vec![Value::obj(vec![(
                        "physicalLocation",
                        Value::obj(vec![(
                            "artifactLocation",
                            Value::obj(vec![("uri", Value::str(file))]),
                        )]),
                    )])]),
                ),
            ])
        })
        .collect();
    Value::Arr(vec![Value::obj(vec![
        ("executionSuccessful", Value::Bool(false)),
        ("toolExecutionNotifications", Value::Arr(notifications)),
    ])])
}

/// A `physicalLocation` object for a site.
fn physical_location(site: &webssari_ir::Site) -> Value {
    // SARIF regions are 1-based; synthetic sites carry line 0.
    let line = u64::from(site.line.max(1));
    Value::obj(vec![
        (
            "artifactLocation",
            Value::obj(vec![("uri", Value::str(&*site.file))]),
        ),
        ("region", Value::obj(vec![("startLine", Value::Num(line))])),
    ])
}

/// The `codeFlows` array for a diagnostic's def-use witness: one code
/// flow with one thread flow whose locations are the witness steps in
/// source-to-sink order, each annotated with the variable it flows
/// through.
fn code_flows(steps: &[FlowStep]) -> Value {
    let locations = steps
        .iter()
        .map(|s| {
            Value::obj(vec![(
                "location",
                Value::obj(vec![
                    ("physicalLocation", physical_location(&s.site)),
                    (
                        "message",
                        Value::obj(vec![("text", Value::str(format!("${}", s.var)))]),
                    ),
                ]),
            )])
        })
        .collect();
    Value::Arr(vec![Value::obj(vec![(
        "threadFlows",
        Value::Arr(vec![Value::obj(vec![("locations", Value::Arr(locations))])]),
    )])])
}

fn result(d: &Diagnostic) -> Value {
    let mut fields = vec![
        ("ruleId", Value::str(d.rule)),
        ("level", Value::str(d.severity.as_str())),
        (
            "message",
            Value::obj(vec![("text", Value::str(d.message.clone()))]),
        ),
        (
            "locations",
            Value::Arr(vec![Value::obj(vec![(
                "physicalLocation",
                physical_location(&d.site),
            )])]),
        ),
    ];
    if !d.steps.is_empty() {
        fields.push(("codeFlows", code_flows(&d.steps)));
    }
    Value::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Severity;
    use php_front::Span;
    use proptest::prelude::*;
    use webssari_ir::Site;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                rule: "unsanitized-sink",
                severity: Severity::Error,
                message: "tainted data may reach echo() via $x".to_owned(),
                site: Site::new("a.php", 3, Span::new(10, 20), "echo $x;"),
                steps: vec![
                    FlowStep {
                        var: "_GET[q]".to_owned(),
                        site: Site::new("a.php", 2, Span::new(0, 9), "$x = $_GET['q'];"),
                    },
                    FlowStep {
                        var: "x".to_owned(),
                        site: Site::new("a.php", 3, Span::new(10, 20), "echo $x;"),
                    },
                ],
            },
            Diagnostic {
                rule: "recursion-cutoff-approximation",
                severity: Severity::Note,
                message: "call degrades".to_owned(),
                site: Site::synthetic("a.php", "r($x)"),
                steps: Vec::new(),
            },
        ]
    }

    #[test]
    fn document_shape_is_sarif_2_1_0() {
        let doc = to_sarif(&sample(), &[]);
        assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
        assert_eq!(
            doc.get("$schema").and_then(Value::as_str),
            Some(SARIF_SCHEMA)
        );
        let run = &doc.get("runs").and_then(Value::as_arr).unwrap()[0];
        let driver = run.get("tool").and_then(|t| t.get("driver")).unwrap();
        assert_eq!(driver.get("name").and_then(Value::as_str), Some("webssari"));
        let rules = driver.get("rules").and_then(Value::as_arr).unwrap();
        assert_eq!(rules.len(), RULES.len());
        let results = run.get("results").and_then(Value::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("ruleId").and_then(Value::as_str),
            Some("unsanitized-sink")
        );
        assert_eq!(
            results[0].get("level").and_then(Value::as_str),
            Some("error")
        );
    }

    #[test]
    fn skipped_files_mark_the_invocation_unsuccessful() {
        let run = |doc: &Value| doc.get("runs").and_then(Value::as_arr).unwrap()[0].clone();
        assert_eq!(run(&to_sarif(&sample(), &[])).get("invocations"), None);
        let skipped = [("b.php".to_owned(), "parse error at 1:12".to_owned())];
        let run = run(&to_sarif(&sample(), &skipped));
        let invocations = run.get("invocations").and_then(Value::as_arr).unwrap();
        assert_eq!(invocations.len(), 1);
        assert_eq!(
            invocations[0].get("executionSuccessful"),
            Some(&Value::Bool(false))
        );
        let notes = invocations[0]
            .get("toolExecutionNotifications")
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].get("level").and_then(Value::as_str), Some("error"));
        assert_eq!(
            notes[0]
                .get("message")
                .and_then(|m| m.get("text"))
                .and_then(Value::as_str),
            Some("parse error at 1:12")
        );
        let uri = notes[0].get("locations").and_then(Value::as_arr).unwrap()[0]
            .get("physicalLocation")
            .and_then(|p| p.get("artifactLocation"))
            .and_then(|a| a.get("uri"))
            .and_then(Value::as_str);
        assert_eq!(uri, Some("b.php"));
        // The findings of the analyzed files are still reported.
        let results = run.get("results").and_then(Value::as_arr).unwrap();
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn synthetic_sites_clamp_start_line_to_one() {
        let doc = to_sarif(&sample(), &[]);
        let run = &doc.get("runs").and_then(Value::as_arr).unwrap()[0];
        let results = run.get("results").and_then(Value::as_arr).unwrap();
        let start = results[1]
            .get("locations")
            .and_then(Value::as_arr)
            .and_then(|l| l[0].get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .and_then(|r| r.get("startLine"))
            .and_then(Value::as_u64);
        assert_eq!(start, Some(1));
    }

    fn step() -> impl Strategy<Value = FlowStep> {
        (".{1,12}", ".{1,20}", 0u32..100, ".{0,30}").prop_map(|(var, file, line, snippet)| {
            FlowStep {
                var,
                site: Site::new(file, line, Span::new(0, 0), &snippet),
            }
        })
    }

    fn diag() -> impl Strategy<Value = Diagnostic> {
        (
            (0usize..RULES.len(), 0usize..3, ".{0,40}"),
            (".{1,20}", 0u32..100, ".{0,30}"),
            proptest::collection::vec(step(), 0..4),
        )
            .prop_map(
                |((rule, sev, message), (file, line, snippet), steps)| Diagnostic {
                    rule: RULES[rule],
                    severity: [Severity::Error, Severity::Warning, Severity::Note][sev],
                    message,
                    site: Site::new(file, line, Span::new(0, 0), &snippet),
                    steps,
                },
            )
    }

    proptest! {
        /// Satellite (c): every emitted report parses back through the
        /// jsonio parser, and every result carries a non-empty ruleId, a
        /// valid level, and a physical location with a uri and a
        /// startLine >= 1 — for arbitrary messages, file names (incl.
        /// quotes, backslashes, non-ASCII), and line numbers (incl. 0).
        #[test]
        fn sarif_round_trips_through_jsonio(diags in proptest::collection::vec(diag(), 0..8)) {
            let json = to_sarif_json(&diags, &[]);
            let doc = jsonio::parse(&json).expect("emitted SARIF must re-parse");
            prop_assert_eq!(doc.clone(), to_sarif(&diags, &[]));
            let run = &doc.get("runs").and_then(Value::as_arr).unwrap()[0];
            let results = run.get("results").and_then(Value::as_arr).unwrap();
            prop_assert_eq!(results.len(), diags.len());
            for (r, d) in results.iter().zip(&diags) {
                let rule = r.get("ruleId").and_then(Value::as_str).unwrap();
                prop_assert!(!rule.is_empty());
                prop_assert_eq!(rule, d.rule);
                let level = r.get("level").and_then(Value::as_str).unwrap();
                prop_assert!(matches!(level, "error" | "warning" | "note"));
                let loc = &r.get("locations").and_then(Value::as_arr).unwrap()[0];
                let phys = loc.get("physicalLocation").unwrap();
                let uri = phys
                    .get("artifactLocation")
                    .and_then(|a| a.get("uri"))
                    .and_then(Value::as_str)
                    .unwrap();
                prop_assert_eq!(uri, &*d.site.file);
                let start = phys
                    .get("region")
                    .and_then(|r| r.get("startLine"))
                    .and_then(Value::as_u64)
                    .unwrap();
                prop_assert!(start >= 1);
                // codeFlows mirror the witness: present exactly when the
                // diagnostic carries steps, one threadFlow location per
                // step, each with a physical location and startLine >= 1.
                match r.get("codeFlows") {
                    None => prop_assert!(d.steps.is_empty()),
                    Some(flows) => {
                        prop_assert!(!d.steps.is_empty());
                        let flow = &flows.as_arr().unwrap()[0];
                        let thread = &flow.get("threadFlows").and_then(Value::as_arr).unwrap()[0];
                        let locs = thread.get("locations").and_then(Value::as_arr).unwrap();
                        prop_assert_eq!(locs.len(), d.steps.len());
                        for (loc, s) in locs.iter().zip(&d.steps) {
                            let l = loc.get("location").unwrap();
                            let uri = l
                                .get("physicalLocation")
                                .and_then(|p| p.get("artifactLocation"))
                                .and_then(|a| a.get("uri"))
                                .and_then(Value::as_str)
                                .unwrap();
                            prop_assert_eq!(uri, &*s.site.file);
                            let start = l
                                .get("physicalLocation")
                                .and_then(|p| p.get("region"))
                                .and_then(|r| r.get("startLine"))
                                .and_then(Value::as_u64)
                                .unwrap();
                            prop_assert!(start >= 1);
                            let text = l
                                .get("message")
                                .and_then(|m| m.get("text"))
                                .and_then(Value::as_str)
                                .unwrap();
                            let want = format!("${}", s.var);
                            prop_assert_eq!(text, want.as_str());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn taint_results_carry_a_source_to_sink_code_flow() {
        let doc = to_sarif(&sample(), &[]);
        let run = &doc.get("runs").and_then(Value::as_arr).unwrap()[0];
        let results = run.get("results").and_then(Value::as_arr).unwrap();
        let flows = results[0].get("codeFlows").and_then(Value::as_arr).unwrap();
        let locs = flows[0]
            .get("threadFlows")
            .and_then(Value::as_arr)
            .and_then(|t| t[0].get("locations"))
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(locs.len(), 2);
        let first_msg = locs[0]
            .get("location")
            .and_then(|l| l.get("message"))
            .and_then(|m| m.get("text"))
            .and_then(Value::as_str);
        assert_eq!(first_msg, Some("$_GET[q]"));
        // The step-less note has no codeFlows at all.
        assert!(results[1].get("codeFlows").is_none());
    }
}
