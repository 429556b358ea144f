//! ARCHITECTURE.md's ordering contract table is checked against the
//! service's concurrency source: for its one hot module, the set of
//! memory orderings the code uses must equal the set the table
//! documents, every documented field must exist in the file, and every
//! referenced model suite must exist on disk. Documentation that cannot
//! drift — change an `Ordering::` in `pool.rs` and this test demands the
//! contract row moves with it (same discipline as
//! `crates/bench/tests/experiments_md.rs`).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The sources the contract covers.
const CONTRACT_FILES: [&str; 1] = ["pool.rs"];

/// Every ordering name the scan recognizes.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One parsed contract row: (field cell, orderings cell, coverage cell).
type Row = (String, String, String);

/// Parses the contract table out of ARCHITECTURE.md: file -> rows.
fn parse_contract_table(markdown: &str) -> BTreeMap<String, Vec<Row>> {
    let mut rows: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for line in markdown.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() != 5 {
            continue;
        }
        let file = cells[0].trim_matches('`');
        if !CONTRACT_FILES.contains(&file) {
            continue; // header, separator, or some other table
        }
        rows.entry(file.to_string()).push_or_insert((
            cells[1].to_string(),
            cells[2].to_string(),
            cells[4].to_string(),
        ));
    }
    rows
}

trait PushOrInsert<T> {
    fn push_or_insert(self, value: T);
}

impl<T> PushOrInsert<T> for std::collections::btree_map::Entry<'_, String, Vec<T>> {
    fn push_or_insert(self, value: T) {
        self.or_default().push(value);
    }
}

/// The orderings a source file actually uses: comment text stripped,
/// the `#[cfg(test)] mod tests` tail truncated (test-only orderings are
/// not part of the cross-thread contract).
fn orderings_in_source(source: &str) -> BTreeSet<&'static str> {
    let code: String = source
        .lines()
        .take_while(|line| line.trim() != "mod tests {")
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    ORDERINGS
        .into_iter()
        .filter(|name| code.contains(&format!("Ordering::{name}")))
        .collect()
}

/// The orderings a table cell documents.
fn orderings_in_cell(cell: &str) -> BTreeSet<&'static str> {
    ORDERINGS
        .into_iter()
        .filter(|name| cell.contains(name))
        .collect()
}

#[test]
fn ordering_contract_matches_the_sources() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let markdown = std::fs::read_to_string(root.join("ARCHITECTURE.md"))
        .expect("ARCHITECTURE.md must exist at the workspace root");
    assert!(
        markdown.contains("### The ordering contract"),
        "ARCHITECTURE.md lost its ordering-contract section"
    );
    let table = parse_contract_table(&markdown);

    for file in CONTRACT_FILES {
        let source = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("src").join(file),
        )
        .unwrap_or_else(|e| panic!("contract source src/{file} must exist: {e}"));
        let in_code = orderings_in_source(&source);

        let rows = table
            .get(file)
            .unwrap_or_else(|| panic!("ARCHITECTURE.md's contract table has no rows for `{file}`"));
        let mut documented = BTreeSet::new();
        for (field, orderings, coverage) in rows {
            documented.extend(orderings_in_cell(orderings));

            // The documented field must exist in the file (first
            // backticked token of the field cell).
            let name = field
                .split('`')
                .nth(1)
                .unwrap_or_else(|| panic!("`{file}` row field cell `{field}` names no field"));
            assert!(
                source.contains(name),
                "`{file}` contract row documents `{name}`, which the source no longer contains"
            );

            // Every referenced model suite must exist on disk ("—" rows
            // reference none).
            for part in coverage.split('`').skip(1).step_by(2) {
                if part.ends_with(".rs") {
                    assert!(
                        root.join(part).exists(),
                        "`{file}` contract row references missing model suite {part}"
                    );
                }
            }
        }

        assert_eq!(
            in_code, documented,
            "`{file}`: orderings used by the code differ from the contract table \
             (code: {in_code:?}, table: {documented:?}) — update the table in \
             ARCHITECTURE.md alongside the code"
        );
    }
}
