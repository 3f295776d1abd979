//! Verification reports.

use std::fmt::Write as _;

use webssari_ir::AiProgram;

use fixes::FixPlan;
use typestate::TsResult;
use xbmc::CheckResult;

/// One reported vulnerability group: a root cause and the symptoms it
/// explains. This is the unit the paper's "BMC-reported errors" column
/// counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vulnerability {
    /// Vulnerability class (`"xss"`, `"sqli"`, `"shell"`, …).
    pub class: String,
    /// The root-cause variable to sanitize.
    pub root_var: String,
    /// Locations (`file:line`) of the symptoms this root cause explains.
    pub symptoms: Vec<String>,
    /// The SOC functions involved.
    pub funcs: Vec<String>,
    /// Whether the recommended patch is to *parameterize the query*
    /// (every symptom is a SQL-structured sink) rather than sanitize —
    /// set only under `prefer_parameterize`.
    pub parameterize: bool,
}

impl Vulnerability {
    /// Appends the group's report line, `[class] <action> $root — fixes
    /// N symptom(s): a.php:3, a.php:4`, where the action is `sanitize`
    /// or, for a group to parameterize, `parameterize the query
    /// binding`.
    pub fn render_into(&self, out: &mut String) {
        let action = if self.parameterize {
            "parameterize the query binding"
        } else {
            "sanitize"
        };
        let _ = write!(
            out,
            "[{}] {action} ${} — fixes {} symptom(s): ",
            self.class,
            self.root_var,
            self.symptoms.len()
        );
        for (i, s) in self.symptoms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(s);
        }
        out.push('\n');
    }
}

/// How verifying one file concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileOutcome {
    /// Every assertion holds — the sound "absence of bugs" guarantee.
    Verified,
    /// At least one counterexample was enumerated.
    Vulnerable,
    /// A solve budget was exhausted before the check finished; any
    /// reported counterexamples are a lower bound, and the absence of
    /// counterexamples means nothing.
    Timeout,
    /// The file could not be parsed (used by batch summaries; a
    /// [`FileReport`] is never built for such files).
    ParseError,
}

impl FileOutcome {
    /// A stable lower-case name (`verified`, `vulnerable`, `timeout`,
    /// `parse-error`) used by reports, caches, and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            FileOutcome::Verified => "verified",
            FileOutcome::Vulnerable => "vulnerable",
            FileOutcome::Timeout => "timeout",
            FileOutcome::ParseError => "parse-error",
        }
    }

    /// Parses [`FileOutcome::as_str`]'s rendering back.
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "verified" => Some(FileOutcome::Verified),
            "vulnerable" => Some(FileOutcome::Vulnerable),
            "timeout" => Some(FileOutcome::Timeout),
            "parse-error" => Some(FileOutcome::ParseError),
            _ => None,
        }
    }
}

impl std::fmt::Display for FileOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The verification outcome for one file (with includes resolved).
#[derive(Clone, Debug)]
pub struct FileReport {
    /// File name.
    pub file: String,
    /// Statements in the resolved program (paper corpus metric).
    pub num_statements: usize,
    /// The abstract interpretation (exposed for rendering and tooling).
    pub ai: AiProgram,
    /// TS baseline outcome.
    pub ts: TsResult,
    /// BMC outcome with all counterexamples.
    pub bmc: CheckResult,
    /// Minimal-fixing-set plan computed from the counterexamples.
    pub fix_plan: FixPlan,
    /// Grouped vulnerability report.
    pub vulnerabilities: Vec<Vulnerability>,
    /// How the verification concluded.
    pub outcome: FileOutcome,
}

impl FileReport {
    /// Guards TS-mode WebSSARI inserts: one per vulnerable statement.
    pub fn ts_instrumentations(&self) -> usize {
        self.ts.num_instrumentations()
    }

    /// Guards BMC-mode WebSSARI inserts: one per error group
    /// (root cause).
    pub fn bmc_instrumentations(&self) -> usize {
        self.fix_plan.num_patches()
    }

    /// Whether the file verified clean. A timed-out check is *not*
    /// safe: the enumeration never finished, so no guarantee exists.
    pub fn is_safe(&self) -> bool {
        self.outcome == FileOutcome::Verified
    }

    /// Renders the full error report with counterexample traces — the
    /// "more descriptive and precise error reports" BMC enables.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_text_into(&mut out);
        out
    }

    /// Appends [`FileReport::render_text`]'s text to `out`.
    pub fn render_text_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "== {} ==\nstatements: {}, assertions checked: {}, TS errors: {}, BMC groups: {}\n",
            self.file,
            self.num_statements,
            self.bmc.checked_assertions,
            self.ts_instrumentations(),
            self.bmc_instrumentations(),
        );
        if self.outcome == FileOutcome::Timeout {
            let _ = writeln!(
                out,
                "TIMEOUT: solve budget exhausted; {} counterexample(s) found before \
                 interruption (no guarantee)",
                self.bmc.counterexamples.len(),
            );
        } else if self.is_safe() {
            out.push_str("VERIFIED: no violations (sound guarantee)\n");
            return;
        }
        for v in &self.vulnerabilities {
            v.render_into(out);
        }
        for cx in &self.bmc.counterexamples {
            cx.render_into(&self.ai, out);
        }
    }

    /// A serializable summary (counts and groups, no IR).
    pub fn summary(&self) -> FileSummary {
        FileSummary {
            file: self.file.clone(),
            num_statements: self.num_statements,
            ts_errors: self.ts_instrumentations(),
            bmc_groups: self.bmc_instrumentations(),
            counterexamples: self.bmc.counterexamples.len(),
            vulnerabilities: self.vulnerabilities.clone(),
            outcome: self.outcome,
        }
    }
}

/// Serializable per-file summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileSummary {
    /// File name.
    pub file: String,
    /// Statement count.
    pub num_statements: usize,
    /// TS-reported errors (vulnerable statements).
    pub ts_errors: usize,
    /// BMC-reported error groups (minimal patches).
    pub bmc_groups: usize,
    /// Total enumerated counterexamples.
    pub counterexamples: usize,
    /// Grouped vulnerabilities.
    pub vulnerabilities: Vec<Vulnerability>,
    /// How the verification concluded.
    pub outcome: FileOutcome,
}

/// The verification outcome for a whole project.
#[derive(Clone, Debug, Default)]
pub struct ProjectReport {
    /// Per-file reports in file-name order.
    pub files: Vec<FileReport>,
    /// Files that failed to parse or resolve, with the error text.
    pub failed_files: Vec<(String, String)>,
}

impl ProjectReport {
    /// Total TS-reported errors across files.
    pub fn ts_errors(&self) -> usize {
        self.files.iter().map(FileReport::ts_instrumentations).sum()
    }

    /// Total BMC-reported error groups across files.
    pub fn bmc_groups(&self) -> usize {
        self.files
            .iter()
            .map(FileReport::bmc_instrumentations)
            .sum()
    }

    /// Total statements analyzed.
    pub fn num_statements(&self) -> usize {
        self.files.iter().map(|f| f.num_statements).sum()
    }

    /// Files with at least one violation.
    pub fn vulnerable_files(&self) -> usize {
        self.files
            .iter()
            .filter(|f| f.outcome == FileOutcome::Vulnerable)
            .count()
    }

    /// Files whose check was cut off by a solve budget.
    pub fn timeout_files(&self) -> usize {
        self.files
            .iter()
            .filter(|f| f.outcome == FileOutcome::Timeout)
            .count()
    }

    /// Whether any file is vulnerable.
    pub fn is_vulnerable(&self) -> bool {
        self.vulnerable_files() > 0
    }

    /// The instrumentation reduction BMC achieves over TS
    /// (`1 − BMC/TS`), the paper's headline 41.0%, over the files whose
    /// check finished: a timed-out file has TS errors but no BMC groups
    /// to weigh them against. `None` when those files report no TS
    /// errors.
    pub fn reduction(&self) -> Option<f64> {
        let (ts, bmc) = self
            .files
            .iter()
            .filter(|f| f.outcome != FileOutcome::Timeout)
            .fold((0, 0), |(ts, bmc), f| {
                (ts + f.ts_instrumentations(), bmc + f.bmc_instrumentations())
            });
        (ts > 0).then(|| 1.0 - bmc as f64 / ts as f64)
    }
}

/// The reduction clause of a totals line, e.g. ` (instrumentation
/// reduction 41.0%)`, naming the timed-out files the reduction leaves
/// out; empty when there is nothing to report.
pub fn reduction_note(reduction: Option<f64>, timeouts: usize) -> String {
    let left_out = match timeouts {
        0 => String::new(),
        n => format!(", {n} timed-out file(s) left out"),
    };
    match reduction {
        Some(r) => format!(" (instrumentation reduction {:.1}%{left_out})", r * 100.0),
        None if timeouts > 0 => format!(" (instrumentation reduction n/a{left_out})"),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {

    use crate::Verifier;

    #[test]
    fn render_text_mentions_groups_and_traces() {
        let src = "<?php $sid = $_GET['sid']; $q = \"x=$sid\"; mysql_query($q); DoSQL($q);";
        let report = Verifier::new().verify_source(src, "f.php").unwrap();
        let text = report.render_text();
        assert!(text.contains("BMC groups: 1"));
        assert!(text.contains("[sqli] sanitize $sid"));
        assert!(text.contains("violation of"));
    }

    #[test]
    fn safe_file_renders_verified() {
        let report = Verifier::new()
            .verify_source("<?php echo 'hi';", "f.php")
            .unwrap();
        assert!(report.is_safe());
        assert!(report.render_text().contains("VERIFIED"));
    }

    #[test]
    fn summary_carries_counts() {
        let src = "<?php $x = $_GET['a']; echo $x; echo $x;";
        let report = Verifier::new().verify_source(src, "f.php").unwrap();
        let summary = report.summary();
        assert_eq!(summary.ts_errors, 2);
        assert_eq!(summary.bmc_groups, 1);
        assert_eq!(summary.vulnerabilities.len(), 1);
    }
}
