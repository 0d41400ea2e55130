//! The failure-class exit codes are prose in three places — the usage
//! text, DESIGN.md §9 and the README — each as "`<code> <class>`".
//! `CliError::exit_code` is the one definition: this test builds one
//! error per class and looks for the pair it implies in each document.

use cbes_cli::{CliError, USAGE};

#[test]
fn documented_exit_codes_are_the_ones_exit_code_returns() {
    let read = |name: &str| {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let design = read("DESIGN.md");
    let start = design.find("\n## 9. ").expect("DESIGN.md has a §9");
    let end = design.find("\n## 10. ").expect("DESIGN.md has a §10");
    let (kind, message) = (String::new(), String::new());
    let classes = [
        ("usage", CliError::usage("")),
        ("transport", CliError::Transport(String::new())),
        ("server", CliError::Server { kind, message }),
        (
            "overload-shed",
            CliError::Shed {
                message: String::new(),
                retry_after_ms: 0,
            },
        ),
    ];
    let mut missing = Vec::new();
    for (doc, text) in [
        ("USAGE", USAGE),
        ("DESIGN.md §9", &design[start..end]),
        ("README.md", &read("README.md")),
    ] {
        // Prose wraps wherever it likes.
        let text = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for (class, error) in &classes {
            let pair = format!("{} {class}", error.exit_code());
            if !text.contains(&pair) {
                missing.push(format!("{doc} does not say `{pair}`"));
            }
        }
    }
    assert!(missing.is_empty(), "{missing:#?}");
}
