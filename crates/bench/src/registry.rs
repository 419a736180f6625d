//! The experiment registry: every committed file under `results/` is an
//! output of exactly one entry here. `experiments run` regenerates
//! entries into a directory, and `experiments check` compares them with
//! the committed copies (`src/bin/experiments.rs`).

use crate::{extensions, paper};
use prio_workloads::{airsn, inspiral, montage, sdss};
use std::path::Path;

/// How long an entry takes, and so who runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// About a second for the whole tier; `scripts/check.sh` checks it.
    Fast,
    /// Minutes of simulation; checked by hand.
    Slow,
}

impl Tier {
    /// Parses `fast` or `slow`.
    pub fn parse(name: &str) -> Option<Tier> {
        match name {
            "fast" => Some(Tier::Fast),
            "slow" => Some(Tier::Slow),
            _ => None,
        }
    }

    /// The tier's name, as [`Tier::parse`] reads it.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Slow => "slow",
        }
    }
}

/// One reproducible experiment. Its parameters are constants in `run`.
pub struct Experiment {
    /// The name `experiments run` selects it by.
    pub name: &'static str,
    /// The file names it writes, relative to the output directory.
    pub outputs: &'static [&'static str],
    /// Which tier it belongs to.
    pub tier: Tier,
    /// Table columns (0-based, in every line of every output) that hold
    /// wall time, which `check` skips; empty means compare bytes.
    pub timed: &'static [usize],
    /// Runs the experiment and returns one text per output, in order.
    pub run: fn() -> Vec<String>,
}

/// Every experiment, fast tier first.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig3",
        outputs: &["fig3_iv.txt"],
        tier: Tier::Fast,
        timed: &[],
        run: || vec![paper::fig3()],
    },
    Experiment {
        name: "fig4",
        outputs: &["fig4_airsn.tsv", "fig4_inspiral.tsv", "fig4_montage.tsv"],
        tier: Tier::Fast,
        timed: &[],
        run: paper::fig4,
    },
    Experiment {
        name: "fig5",
        outputs: &["fig5_airsn.dot"],
        tier: Tier::Fast,
        timed: &[],
        run: || vec![paper::fig5()],
    },
    Experiment {
        name: "table_overhead",
        outputs: &["table_overhead.txt"],
        tier: Tier::Fast,
        timed: &[2, 3, 4, 5, 6, 7],
        run: || vec![paper::table_overhead()],
    },
    Experiment {
        name: "baselines",
        outputs: &["baselines.txt"],
        tier: Tier::Fast,
        timed: &[],
        run: || vec![extensions::baselines()],
    },
    Experiment {
        name: "heterogeneity",
        outputs: &["heterogeneity.txt"],
        tier: Tier::Fast,
        timed: &[],
        run: || vec![extensions::heterogeneity()],
    },
    Experiment {
        name: "maxjobs",
        outputs: &["maxjobs.txt"],
        tier: Tier::Fast,
        timed: &[],
        run: || vec![extensions::maxjobs()],
    },
    Experiment {
        name: "rollover",
        outputs: &["rollover.txt"],
        tier: Tier::Fast,
        timed: &[],
        run: || vec![extensions::rollover()],
    },
    Experiment {
        name: "robustness",
        outputs: &["robustness.txt"],
        tier: Tier::Fast,
        timed: &[],
        run: || vec![extensions::robustness()],
    },
    Experiment {
        name: "fault_sweep",
        outputs: &["fault_sweep.txt"],
        tier: Tier::Fast,
        timed: &[],
        run: || vec![extensions::fault_sweep()],
    },
    Experiment {
        name: "fig_ratios_airsn",
        outputs: &["fig_ratios_airsn.tsv"],
        tier: Tier::Slow,
        timed: &[],
        run: || vec![paper::fig_ratios("airsn", airsn::airsn_paper())],
    },
    Experiment {
        name: "fig_ratios_inspiral",
        outputs: &["fig_ratios_inspiral.tsv"],
        tier: Tier::Slow,
        timed: &[],
        run: || {
            let dag = inspiral::inspiral(inspiral::InspiralParams::default());
            vec![paper::fig_ratios("inspiral", dag)]
        },
    },
    Experiment {
        name: "fig_ratios_montage",
        outputs: &["fig_ratios_montage.tsv"],
        tier: Tier::Slow,
        timed: &[],
        run: || {
            let dag = montage::montage(montage::MontageParams::default());
            vec![paper::fig_ratios("montage", dag)]
        },
    },
    Experiment {
        name: "fig_ratios_sdss",
        outputs: &["fig_ratios_sdss.tsv"],
        tier: Tier::Slow,
        timed: &[],
        run: || {
            // 4,803 jobs: the full 48,013-job grid takes hours.
            let dag = sdss::sdss(sdss::SdssParams::scaled(0.1));
            vec![paper::fig_ratios("sdss", dag)]
        },
    },
    Experiment {
        name: "sweet_spot_sdss",
        outputs: &["sweet_spot_sdss.txt"],
        tier: Tier::Slow,
        timed: &[],
        run: || vec![paper::sweet_spot_sdss()],
    },
    Experiment {
        name: "fig6_airsn_mubit1_p300",
        outputs: &["fig6_airsn_mubit1_p300.tsv"],
        tier: Tier::Slow,
        timed: &[],
        run: || vec![paper::fig6_airsn_mubit1_p300()],
    },
    Experiment {
        name: "ablations",
        outputs: &["ablations.txt"],
        tier: Tier::Slow,
        timed: &[1, 2, 3],
        run: || vec![paper::ablations()],
    },
];

/// The entry called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The entries of one tier, in registry order.
pub fn tier(tier: Tier) -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter().filter(move |e| e.tier == tier)
}

impl Experiment {
    /// Runs the experiment: each output's file name with its text.
    pub fn regenerate(&self) -> Vec<(&'static str, String)> {
        let texts = (self.run)();
        assert_eq!(
            texts.len(),
            self.outputs.len(),
            "{}: one text per output",
            self.name
        );
        self.outputs.iter().copied().zip(texts).collect()
    }

    /// Regenerates the outputs and returns those that differ from their
    /// copies under `committed` (a missing copy differs), each with its
    /// regenerated text.
    pub fn check(&self, committed: &Path) -> Vec<(&'static str, String)> {
        let mut differing = self.regenerate();
        differing.retain(|(file, text)| {
            let old = std::fs::read_to_string(committed.join(file));
            !old.is_ok_and(|old| same_up_to_time(&old, text, self.timed))
        });
        differing
    }
}

/// Whether two outputs agree. With no `timed` columns they must be equal
/// bytes; otherwise every line must hold the same cells (split at runs of
/// two or more spaces, as [`prio_obs::report::Table`] aligns them) apart
/// from the `timed` ones.
pub fn same_up_to_time(committed: &str, regenerated: &str, timed: &[usize]) -> bool {
    if timed.is_empty() {
        return committed == regenerated;
    }
    let cells = |line: &str| -> Vec<String> {
        line.split("  ")
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .enumerate()
            .map(|(i, c)| if timed.contains(&i) { "" } else { c }.to_string())
            .collect()
    };
    committed
        .lines()
        .map(cells)
        .eq(regenerated.lines().map(cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn results_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    #[test]
    fn names_are_unique_and_outputs_match_results_one_to_one() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate entry name");
        let outputs: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.outputs.iter().copied())
            .collect();
        let unique: BTreeSet<&str> = outputs.iter().copied().collect();
        assert_eq!(unique.len(), outputs.len(), "two entries write one file");
        let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        let unique: BTreeSet<String> = unique.into_iter().map(String::from).collect();
        assert_eq!(
            committed, unique,
            "results/ and the registry outputs differ"
        );
    }

    #[test]
    fn check_names_the_file_with_a_flipped_byte() {
        let fig5 = find("fig5").unwrap();
        let dir = std::env::temp_dir().join(format!("prio-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut dot = std::fs::read(results_dir().join("fig5_airsn.dot")).unwrap();
        std::fs::write(dir.join("fig5_airsn.dot"), &dot).unwrap();
        assert!(
            fig5.check(&dir).is_empty(),
            "the committed copy regenerates"
        );
        let last = dot.len() - 2;
        dot[last] ^= 1;
        std::fs::write(dir.join("fig5_airsn.dot"), &dot).unwrap();
        let differing = fig5.check(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(differing.len(), 1);
        assert_eq!(differing[0].0, "fig5_airsn.dot");
    }

    #[test]
    fn overhead_comparison_skips_time_cells_only() {
        let timed = find("table_overhead").unwrap().timed;
        let committed = std::fs::read_to_string(results_dir().join("table_overhead.txt")).unwrap();
        let airsn = committed.lines().nth(2).unwrap();
        let swap = |from: &str, to: &str| committed.replacen(from, to, 1);
        assert!(airsn.contains("232.1 µs") && airsn.contains("121.4 KB"));
        // A slower run, wider time cells shifting the later columns.
        assert!(same_up_to_time(
            &committed,
            &swap("232.1 µs", "1234.5 ms"),
            timed
        ));
        assert!(same_up_to_time(
            &committed,
            &swap("33.5 µs", "3.1 ms"),
            timed
        ));
        assert!(!same_up_to_time(&committed, &swap("773 ", "774 "), timed));
        assert!(!same_up_to_time(
            &committed,
            &swap("121.4 KB", "121.5 KB"),
            timed
        ));
        assert!(!same_up_to_time(
            &committed,
            &format!("{committed}extra\n"),
            timed
        ));
        assert!(!same_up_to_time(
            &committed,
            &swap("232.1 µs", "232.2 µs"),
            &[]
        ));
    }

    #[test]
    fn tiers_parse_their_names() {
        for t in [Tier::Fast, Tier::Slow] {
            assert_eq!(Tier::parse(t.name()), Some(t));
        }
        assert_eq!(Tier::parse("all"), None);
        assert!(tier(Tier::Fast).all(|e| e.tier == Tier::Fast));
    }
}
