//! Synthetic SourceForge-like PHP corpus, calibrated to the paper's
//! evaluation (§5, Figure 10).
//!
//! The original experiment downloaded 230 PHP projects from
//! SourceForge.net (11,848 files, 1,140,091 statements); 69 were found
//! vulnerable and 38 developers acknowledged the reports. Those
//! tarballs from 2003 are unobtainable, so this crate *generates* a
//! corpus whose vulnerability structure reproduces the paper's
//! measurements:
//!
//! * [`figure10_profiles`] carries the 38 acknowledged projects
//!   verbatim from Figure 10 — project name, SourceForge activity, and
//!   the TS/BMC error counts — and [`generate_project`] materializes
//!   PHP source whose *analysis results* hit those counts exactly: each
//!   BMC error group becomes a distinct root cause (an unsanitized
//!   input read) whose taint propagates to as many sensitive-output
//!   statements as the group has TS symptoms.
//! * [`Corpus::sourceforge_230`] builds the whole 230-project corpus
//!   (the 38 acknowledged + 31 more vulnerable + 161 clean projects)
//!   with file and statement counts matching §5 at full scale.
//!
//! The generated PHP is real input to the pipeline — lexed, parsed,
//! filtered, encoded to CNF, and solved — not a mock: the calibration
//! only controls *how many* root causes and symptoms exist, and the
//! test suite re-derives the Figure 10 numbers by running the verifier.
//!
//! # Examples
//!
//! ```
//! use corpus::{figure10_profiles, generate_project};
//! use webssari_core::Verifier;
//!
//! let profile = figure10_profiles()
//!     .into_iter()
//!     .find(|p| p.name == "PHP Helpdesk")
//!     .unwrap();
//! let project = generate_project(&profile);
//! let report = Verifier::new().verify_project(&project.sources);
//! assert_eq!(report.ts_errors(), 1);
//! assert_eq!(report.bmc_groups(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod profiles;

pub use generator::{generate_project, sql_heavy_project, GeneratedProject};
pub use profiles::{figure10_profiles, paper_stats, CorpusScale, ProjectProfile};

/// A full multi-project corpus.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    /// The generated projects.
    pub projects: Vec<GeneratedProject>,
}

impl Corpus {
    /// Generates the 38 acknowledged projects of Figure 10.
    pub fn figure10() -> Self {
        Corpus {
            projects: figure10_profiles().iter().map(generate_project).collect(),
        }
    }

    /// Generates the whole 230-project corpus of §5 at the given scale.
    ///
    /// At [`CorpusScale::Full`], the corpus has 230 projects, 11,848
    /// files, and is padded to 1,140,091 statements; 69 projects are
    /// vulnerable. Smaller scales keep the project structure but shrink
    /// the padding, for tests.
    pub fn sourceforge_230(scale: CorpusScale) -> Self {
        Corpus {
            projects: profiles::sourceforge_230_profiles(scale)
                .iter()
                .map(generate_project)
                .collect(),
        }
    }

    /// Total files across projects.
    pub fn num_files(&self) -> usize {
        self.projects.iter().map(|p| p.sources.len()).sum()
    }

    /// Sum of the projects' expected TS error counts.
    pub fn expected_ts_errors(&self) -> usize {
        self.projects.iter().map(|p| p.expected_ts).sum()
    }

    /// Sum of the projects' expected BMC group counts.
    pub fn expected_bmc_groups(&self) -> usize {
        self.projects.iter().map(|p| p.expected_bmc).sum()
    }

    /// Number of projects expected to be vulnerable.
    pub fn expected_vulnerable_projects(&self) -> usize {
        self.projects.iter().filter(|p| p.expected_bmc > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_totals_match_the_paper() {
        let c = Corpus::figure10();
        assert_eq!(c.projects.len(), 38);
        assert_eq!(c.expected_ts_errors(), 980);
        assert_eq!(c.expected_bmc_groups(), 578);
        // The headline: 41.0% reduction.
        let reduction: f64 = 1.0 - 578.0 / 980.0;
        assert!((reduction - 0.410).abs() < 0.0005);
    }

    #[test]
    fn corpus_230_shape() {
        let c = Corpus::sourceforge_230(CorpusScale::Small);
        assert_eq!(c.projects.len(), 230);
        assert_eq!(c.expected_vulnerable_projects(), 69);
        assert!(c.expected_ts_errors() >= 980);
    }
}
