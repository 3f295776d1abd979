//! Cross-referenced HTML reports.
//!
//! The paper's authors "added features to the WebSSARI GUI that helped
//! users: a) navigate between different source files, function calls,
//! and vulnerable lines; b) identify particular variables […]; and c)
//! search for specific variables" and generated "cross-referenced HTML
//! documentations of source code" with PHPXREF (§5). This module is the
//! reproduction's equivalent: a single self-contained HTML page with
//! the project summary, per-group vulnerability cards, and syntax-lit
//! source listings in which vulnerable lines and tainting assignments
//! are highlighted and cross-linked.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use php_front::SourceSet;

use crate::report::ProjectReport;

/// Renders a whole project report as one self-contained HTML page.
///
/// `sources` must be the source set the report was produced from; files
/// missing from it are listed without a source view.
pub fn render_html(report: &ProjectReport, sources: &SourceSet) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str(HEADER);
    let _ = write!(
        out,
        "<h1>WebSSARI verification report</h1>\n\
         <p class='summary'>{files} file(s), {stmts} statements — \
         <b>{vuln}</b> vulnerable file(s); TS symptoms: {ts}, \
         BMC error groups: {bmc}{red}</p>\n",
        files = report.files.len(),
        stmts = report.num_statements(),
        vuln = report.vulnerable_files(),
        ts = report.ts_errors(),
        bmc = report.bmc_groups(),
        red = crate::reduction_note(report.reduction(), report.timeout_files()),
    );

    // ---- file index -------------------------------------------------
    out.push_str("<h2>Files</h2>\n<table class='index'>\n");
    out.push_str(
        "<tr><th>file</th><th>statements</th><th>TS</th><th>BMC</th><th>status</th></tr>\n",
    );
    for file in &report.files {
        let _ = writeln!(
            out,
            "<tr><td><a href='#file-{id}'>{name}</a></td><td>{stmts}</td>\
             <td>{ts}</td><td>{bmc}</td><td class='{cls}'>{status}</td></tr>",
            id = slug(&file.file),
            name = escape(&file.file),
            stmts = file.num_statements,
            ts = file.ts_instrumentations(),
            bmc = file.bmc_instrumentations(),
            cls = if file.is_safe() { "ok" } else { "bad" },
            status = if file.is_safe() {
                "verified"
            } else {
                "VULNERABLE"
            },
        );
    }
    for (name, err) in &report.failed_files {
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td>—</td><td>—</td><td>—</td>\
             <td class='bad'>parse failed: {}</td></tr>",
            escape(name),
            escape(err)
        );
    }
    out.push_str("</table>\n");

    // ---- per-file sections -------------------------------------------
    for file in &report.files {
        let _ = writeln!(
            out,
            "<h2 id='file-{id}'>{name}</h2>",
            id = slug(&file.file),
            name = escape(&file.file)
        );
        if file.is_safe() {
            let certified = file.bmc.certificates.len();
            if certified > 0 {
                let _ = writeln!(
                    out,
                    "<p class='ok'>verified: no taint flows — {certified} \
                     assertion(s) carry machine-checked DRAT certificates</p>"
                );
            } else {
                out.push_str("<p class='ok'>verified: no taint flows (sound guarantee)</p>\n");
            }
        }
        // Vulnerability group cards.
        for (i, v) in file.vulnerabilities.iter().enumerate() {
            let _ = write!(
                out,
                "<div class='vuln'><b>[{class}]</b> root cause \
                 <code class='var'>${root}</code> — {n} symptom(s): ",
                class = escape(&v.class),
                root = escape(&v.root_var),
                n = v.symptoms.len(),
            );
            for (j, s) in v.symptoms.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                match s.rsplit_once(':').and_then(|(_, l)| l.parse::<u32>().ok()) {
                    Some(line) => {
                        let _ = write!(
                            out,
                            "<a href='#L-{id}-{line}'>{s}</a>",
                            id = slug(&file.file),
                            s = escape(s)
                        );
                    }
                    None => out.push_str(&escape(s)),
                }
            }
            let _ = writeln!(out, " <span class='gid'>(group {})</span></div>", i + 1);
        }
        // Counterexample traces.
        for cx in &file.bmc.counterexamples {
            out.push_str("<details class='trace'><summary>counterexample: ");
            let _ = write!(
                out,
                "{}() at {} — tainted: {}</summary>\n<ol>\n",
                escape(&cx.func),
                escape(&cx.site.to_string()),
                cx.violating_vars
                    .iter()
                    .map(|v| format!("<code>${}</code>", escape(file.ai.vars.name(*v))))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            for step in &cx.trace {
                let _ = writeln!(
                    out,
                    "<li><a href='#L-{id}-{line}'>{site}</a> \
                     <code>${var} := {snippet}</code></li>",
                    id = slug(&file.file),
                    line = step.site.line,
                    site = escape(&step.site.to_string()),
                    var = escape(file.ai.vars.name(step.var)),
                    snippet = escape(&step.site.snippet),
                );
            }
            out.push_str("</ol></details>\n");
        }
        // Source listing with highlighted lines.
        let Some(src) = sources.file(&file.file) else {
            continue;
        };
        let mut vulnerable_lines: BTreeMap<u32, &'static str> = BTreeMap::new();
        for cx in &file.bmc.counterexamples {
            if !cx.site.is_synthetic() {
                vulnerable_lines.insert(cx.site.line, "sink");
            }
            for step in &cx.trace {
                if !step.site.is_synthetic() {
                    vulnerable_lines.entry(step.site.line).or_insert("flow");
                }
            }
        }
        out.push_str("<pre class='src'>\n");
        for (i, line) in src.lines().enumerate() {
            let lineno = (i + 1) as u32;
            let class = vulnerable_lines.get(&lineno).copied().unwrap_or("");
            let _ = writeln!(
                out,
                "<span id='L-{id}-{lineno}' class='line {class}'>\
                 <span class='no'>{lineno:>4}</span> {text}</span>",
                id = slug(&file.file),
                text = escape(line),
            );
        }
        out.push_str("</pre>\n");
    }
    out.push_str("</body></html>\n");
    out
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

fn escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '&' => "&amp;".chars().collect::<Vec<_>>(),
            '<' => "&lt;".chars().collect(),
            '>' => "&gt;".chars().collect(),
            '"' => "&quot;".chars().collect(),
            other => vec![other],
        })
        .collect()
}

const HEADER: &str = "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>\n\
<title>WebSSARI report</title>\n<style>\n\
body { font-family: sans-serif; margin: 2em; max-width: 72em; }\n\
table.index { border-collapse: collapse; }\n\
table.index td, table.index th { border: 1px solid #ccc; padding: 4px 10px; }\n\
.ok { color: #1a7f37; }\n\
.bad { color: #b91c1c; font-weight: bold; }\n\
.vuln { background: #fef2f2; border-left: 4px solid #b91c1c; padding: 6px 10px; margin: 6px 0; }\n\
.gid { color: #666; }\n\
details.trace { margin: 4px 0 10px 0; }\n\
pre.src { background: #f6f8fa; padding: 8px; overflow-x: auto; }\n\
pre.src .line { display: block; }\n\
pre.src .no { color: #888; user-select: none; }\n\
pre.src .sink { background: #fecaca; }\n\
pre.src .flow { background: #fef3c7; }\n\
code.var { background: #fee; padding: 0 3px; }\n\
</style></head><body>\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verifier;

    fn project() -> (SourceSet, ProjectReport) {
        let mut set = SourceSet::new();
        set.add_file(
            "index.php",
            "<?php\n$sid = $_GET['sid'];\n$q = \"WHERE sid=$sid\";\nmysql_query($q);\n",
        );
        set.add_file("safe.php", "<?php\necho 'hello';\n");
        set.add_file("broken.php", "<?php if (");
        let report = Verifier::new().verify_project(&set);
        (set, report)
    }

    #[test]
    fn html_contains_summary_and_index() {
        let (set, report) = project();
        let html = render_html(&report, &set);
        assert!(html.contains("<h1>WebSSARI verification report</h1>"));
        assert!(html.contains("VULNERABLE"));
        assert!(html.contains("verified"));
        assert!(html.contains("parse failed"));
    }

    #[test]
    fn vulnerable_lines_are_highlighted_and_linked() {
        let (set, report) = project();
        let html = render_html(&report, &set);
        // The sink line (4) is highlighted and the symptom links to it.
        assert!(html.contains("id='L-index-php-4' class='line sink'"));
        assert!(html.contains("href='#L-index-php-4'"));
        // The tainting assignment (line 2) is marked as flow.
        assert!(html.contains("id='L-index-php-2' class='line flow'"));
    }

    #[test]
    fn group_cards_name_the_root_cause() {
        let (set, report) = project();
        let html = render_html(&report, &set);
        assert!(html.contains("root cause"));
        assert!(html.contains("<code class='var'>$sid</code>"));
    }

    #[test]
    fn source_is_escaped() {
        let mut set = SourceSet::new();
        set.add_file("x.php", "<?php\necho '<script>' . $_GET['x'];\n");
        let report = Verifier::new().verify_project(&set);
        let html = render_html(&report, &set);
        assert!(html.contains("&lt;script&gt;"));
        assert!(!html.contains("echo '<script>"));
    }

    #[test]
    fn traces_are_rendered_as_lists() {
        let (set, report) = project();
        let html = render_html(&report, &set);
        assert!(html.contains("<details class='trace'>"));
        assert!(html.contains("counterexample: mysql_query()"));
    }
}
