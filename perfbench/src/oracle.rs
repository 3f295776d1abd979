//! Known answers. Every expected count comes from the corpus
//! calibration or from the paper's Figure 10 table, never from running
//! the verifier, so a wrong verdict cannot vouch for itself.

use corpus::GeneratedProject;
use webssari_engine::{hash, EngineReport};

/// Figure 10 of the paper: `(project, TS-reported, BMC-reported)` for
/// the 38 acknowledged projects. The TS column carries the corpus
/// crate's transcription note: PHP Surveyor holds the 11 symptoms the
/// scanned table loses, so the columns total 980 and 578.
pub const FIGURE10: [(&str, usize, usize); 38] = [
    ("GBook MX", 4, 2),
    ("AthenaRMS", 3, 2),
    ("PHPCodeCabinet", 25, 25),
    ("BolinOS", 3, 3),
    ("PHP Surveyor", 180, 90),
    ("Booby", 5, 4),
    ("ByteHoard", 2, 2),
    ("PHPRecipeBook", 11, 8),
    ("phpLDAPadmin", 25, 13),
    ("Segue CMS", 11, 9),
    ("Moregroupware", 7, 7),
    ("iNuke", 3, 3),
    ("InfoCentral", 206, 57),
    ("WebMovieDB", 7, 5),
    ("TestLink", 69, 48),
    ("Crafty Syntax Live Help", 16, 1),
    ("ILIAS open source", 2, 2),
    ("PHP Multiple Newsletters", 30, 30),
    ("International Suspect Vigilance Nexus", 20, 12),
    ("SquirrelMail", 7, 7),
    ("PHPMyList", 10, 4),
    ("EGroupWare", 4, 4),
    ("PHPFriendlyAdmin", 16, 16),
    ("PHP Helpdesk", 1, 1),
    ("Media Mate", 53, 16),
    ("Obelus Helpdesk", 8, 6),
    ("eDreamers", 7, 1),
    ("Mad.Thought", 4, 4),
    ("PHPLetter", 23, 23),
    ("WebArchive", 7, 2),
    ("Nalanda", 27, 8),
    ("Site@School", 46, 40),
    ("PHPList", 16, 1),
    ("PHPPgAdmin", 3, 3),
    ("Anonymous Mailer", 7, 7),
    ("PHP Support Tickets", 40, 40),
    ("Norfolk Household Financial Manager", 60, 60),
    ("Tiki CMS Groupware", 12, 12),
];

/// The §5 corpus totals the calibration reproduces: 230 projects,
/// 11,848 files, 69 vulnerable projects, and over all 230 projects
/// 1,195 TS errors in 722 BMC groups.
pub const CORPUS_PROJECTS: usize = 230;
pub const CORPUS_FILES: usize = 11_848;
pub const CORPUS_VULNERABLE_PROJECTS: usize = 69;
pub const CORPUS_TS: usize = 1_195;
pub const CORPUS_BMC: usize = 722;

/// Expected `(TS errors, BMC groups)` of one project.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    pub ts: usize,
    pub bmc: usize,
}

/// The Figure 10 answer of each generated project, in corpus order.
/// Fails when the generated corpus no longer matches the table.
pub fn figure10_answers(projects: &[GeneratedProject]) -> Result<Vec<Answer>, String> {
    if projects.len() != FIGURE10.len() {
        return Err(format!(
            "Figure 10 has 38 rows, corpus has {}",
            projects.len()
        ));
    }
    projects
        .iter()
        .zip(FIGURE10)
        .map(|(p, (name, ts, bmc))| {
            let calibrated = (p.expected_ts, p.expected_bmc);
            if p.name != name || calibrated != (ts, bmc) {
                return Err(format!(
                    "corpus row {} ({:?}) differs from Figure 10 row {name} ({ts}, {bmc})",
                    p.name, calibrated
                ));
            }
            Ok(Answer { ts, bmc })
        })
        .collect()
}

/// The calibrated answer of each corpus project, after checking the
/// corpus totals against §5.
pub fn corpus_answers(projects: &[GeneratedProject]) -> Result<Vec<Answer>, String> {
    let files: usize = projects.iter().map(|p| p.sources.len()).sum();
    let ts: usize = projects.iter().map(|p| p.expected_ts).sum();
    let bmc: usize = projects.iter().map(|p| p.expected_bmc).sum();
    let vulnerable = projects.iter().filter(|p| p.expected_bmc > 0).count();
    let shape = (projects.len(), files, vulnerable, ts, bmc);
    let paper = (
        CORPUS_PROJECTS,
        CORPUS_FILES,
        CORPUS_VULNERABLE_PROJECTS,
        CORPUS_TS,
        CORPUS_BMC,
    );
    if shape != paper {
        return Err(format!(
            "corpus (projects, files, vulnerable, TS, BMC) = {shape:?}, expected {paper:?}"
        ));
    }
    figure10_answers(&projects[..FIGURE10.len()])?;
    Ok(projects
        .iter()
        .map(|p| Answer {
            ts: p.expected_ts,
            bmc: p.expected_bmc,
        })
        .collect())
}

/// Whether an engine report matches its project's answer: the TS and
/// BMC totals agree and no file failed to parse.
pub fn report_matches(report: &EngineReport, answer: Answer) -> bool {
    report.failed_files.is_empty()
        && report.ts_errors() == answer.ts
        && report.bmc_groups() == answer.bmc
}

/// Folds a report's per-file summaries (which carry no timings) and
/// failed files into a running FNV-1a fingerprint.
pub fn fingerprint(seed: u64, report: &EngineReport) -> u64 {
    let mut h = seed;
    for f in &report.files {
        let json = webssari_engine::summary_to_value(&f.summary).to_json();
        h = hash::fold(h, json.as_bytes());
    }
    for (file, error) in &report.failed_files {
        h = hash::fold(hash::fold(h, file.as_bytes()), error.as_bytes());
    }
    h
}

/// The fingerprint's starting value.
pub const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;
