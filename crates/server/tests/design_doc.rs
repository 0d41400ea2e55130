//! DESIGN.md's two per-action tables — the §7 wire-protocol table and
//! the §11 forwarding plan — are renderings of the protocol's action
//! table. These tests iterate the real table over the document, in
//! both directions: every row is documented with the values the code
//! has, and the document lists no action the code does not.

use cbes_server::protocol::{ActionSpec, ACTIONS};

/// The cells of every table row between `heading` and the next heading
/// whose first cell is a backticked name.
fn table_under(heading: &str) -> Vec<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md is readable");
    let start = design
        .find(heading)
        .unwrap_or_else(|| panic!("DESIGN.md has no `{heading}`"));
    let section = &design[start + heading.len()..];
    let section = &section[..section.find("\n#").unwrap_or(section.len())];
    let cells = |line: &str| -> Vec<String> {
        let inner = line.trim().trim_matches('|');
        inner.split('|').map(|c| c.trim().to_string()).collect()
    };
    let rows = section.lines().filter(|l| l.starts_with("| `"));
    rows.map(cells).collect()
}

fn sorted(mut rows: Vec<Vec<String>>) -> Vec<Vec<String>> {
    rows.sort();
    rows
}

#[test]
fn the_wire_protocol_table_renders_every_row_of_the_action_table() {
    // `Compare {app, mappings}` → Compare, plus the class/retry/thread cells.
    let documented = table_under("### Wire protocol").into_iter().map(|row| {
        let shape = row[0].trim_matches('`');
        let tag = shape.split([' ', '{']).next().unwrap_or(shape).to_string();
        [&[tag], &row[row.len() - 3..]].concat()
    });
    let word = |flag: bool, yes: &str, no: &str| if flag { yes } else { no }.to_string();
    let declared = ACTIONS.iter().map(|spec: &ActionSpec| {
        vec![
            spec.tag.to_string(),
            word(spec.eval, "eval", "control"),
            word(spec.idempotent, "replay", "once"),
            word(spec.inline, "inline", "queued"),
        ]
    });
    assert_eq!(sorted(documented.collect()), sorted(declared.collect()));
}

#[test]
fn the_forwarding_plan_renders_every_row_of_the_action_table() {
    let documented = table_under("### Forwarding plan")
        .into_iter()
        .map(|row| vec![row[0].trim_matches('`').to_string(), row[1].clone()]);
    let declared = ACTIONS.iter().map(|spec| {
        vec![
            spec.name.to_string(),
            format!("{:?}", spec.forward).to_lowercase(),
        ]
    });
    assert_eq!(sorted(documented.collect()), sorted(declared.collect()));
}
