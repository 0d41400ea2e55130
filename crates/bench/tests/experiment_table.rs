//! The experiment table is the contract: its names are unique, DESIGN.md
//! §4 indexes every row, an unknown name is a usage error that lists the
//! table, and a row's report is a function of its arguments alone.

use std::collections::BTreeSet;

use cbes_bench::args::ExpArgs;
use cbes_bench::harness::parallel_map;
use cbes_bench::{find, Report, EXPERIMENTS};

#[test]
fn the_table_is_the_contract() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md is readable");
    let heading = "## 4. Experiment index";
    let start = design.find(heading).expect("DESIGN.md has §4");
    let section = &design[start + heading.len()..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];

    let usage = find("no_such_experiment").err().expect("a usage error");
    let mut names = BTreeSet::new();
    for e in EXPERIMENTS {
        assert!(names.insert(e.name), "`{}` is listed twice", e.name);
        assert!(find(e.name).is_ok_and(|found| found.name == e.name));
        assert!(usage.contains(e.name), "usage error omits `{}`", e.name);
        assert!(
            section.contains(&format!("`{}`", e.name)),
            "DESIGN.md §4 does not index `{}`",
            e.name
        );
    }

    // One scheduler run per case keeps the whole table cheap enough to
    // execute here; artifact names do not depend on the run count.
    let quick = ExpArgs {
        runs: Some(1),
        ..ExpArgs::default()
    };
    let reports = parallel_map(EXPERIMENTS.iter().collect(), |e| (e.run)(&quick));
    let mut artifacts = BTreeSet::new();
    for (e, Report { text, artifacts: a }) in EXPERIMENTS.iter().zip(reports) {
        assert!(!text.is_empty() && !a.is_empty(), "`{}` is empty", e.name);
        for (name, _) in a {
            assert!(
                artifacts.insert(name.clone()),
                "`{}` writes `{name}` again",
                e.name
            );
        }
    }

    let lambda = find("ablation_lambda").expect("a table row");
    let args = ExpArgs::default();
    assert_eq!((lambda.run)(&args), (lambda.run)(&args));
}
