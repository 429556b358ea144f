//! `EXPERIMENTS.md` is checked against the experiment registry: every
//! registered experiment must appear in the catalog table with its exact
//! claim text, and the table must list nothing the registry does not
//! know. The committed `BENCH_*.json` artifacts are checked against the
//! table's artifact column. Documentation that cannot drift.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use renaming_bench::experiments;
use serde_json::Value;

/// One parsed row of the catalog table, keyed by id.
struct CatalogRow {
    flag: String,
    claim: String,
    artifact: String,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_catalog_table() -> BTreeMap<String, CatalogRow> {
    let path = repo_root().join("EXPERIMENTS.md");
    let markdown = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("EXPERIMENTS.md must exist at {}: {e}", path.display()));
    parse_catalog_table(&markdown)
}

fn parse_catalog_table(markdown: &str) -> BTreeMap<String, CatalogRow> {
    let mut rows = BTreeMap::new();
    for line in markdown.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        // Catalog rows have exactly the 5 documented columns; skip the
        // header ("id | flag name | ...") and the separator row.
        if cells.len() != 5 || cells[0] == "id" || cells[0].starts_with('-') {
            continue;
        }
        let id = cells[0].to_string();
        let row = CatalogRow {
            flag: cells[1].trim_matches('`').to_string(),
            claim: cells[2].to_string(),
            artifact: cells[4].to_string(),
        };
        assert!(
            rows.insert(id.clone(), row).is_none(),
            "duplicate row for `{id}` in EXPERIMENTS.md"
        );
    }
    rows
}

#[test]
fn experiments_md_matches_the_registry() {
    let rows = read_catalog_table();
    let catalog = experiments::catalog();

    assert_eq!(
        rows.len(),
        catalog.len(),
        "EXPERIMENTS.md lists {} experiments, the registry has {}",
        rows.len(),
        catalog.len()
    );

    for info in &catalog {
        let row = rows
            .get(info.id)
            .unwrap_or_else(|| panic!("experiment `{}` is missing from EXPERIMENTS.md", info.id));
        assert_eq!(
            row.flag, info.id,
            "`{}`: the flag name column must be the registry id (it is the CLI argument)",
            info.id
        );
        assert_eq!(
            row.claim, info.claim,
            "`{}`: claim text in EXPERIMENTS.md drifted from the registry",
            info.id
        );
    }

    for id in rows.keys() {
        assert!(
            catalog.iter().any(|info| info.id == id),
            "EXPERIMENTS.md documents `{id}`, which the registry does not contain"
        );
    }
}

/// The `BENCH_*.json` files at the repository root are exactly the
/// catalog's artifact cells, and each opens with the header every
/// tooling experiment writes: `experiment` (its id), `mode`, `seed`,
/// `available_parallelism` and the `reproduce` command line. Each comes
/// from a full run: CI's quick runs write to a scratch directory.
#[test]
fn committed_artifacts_match_the_catalog() {
    let artifacts: BTreeMap<String, String> = read_catalog_table()
        .into_iter()
        .filter_map(|(id, row)| {
            let file = row.artifact.strip_prefix('`')?.strip_suffix('`')?;
            Some((file.to_string(), id))
        })
        .collect();
    let root = repo_root();
    let mut committed: Vec<String> = std::fs::read_dir(&root)
        .expect("repository root is readable")
        .map(|entry| entry.expect("directory entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    committed.sort_unstable();
    assert_eq!(
        committed,
        artifacts.keys().cloned().collect::<Vec<_>>(),
        "the committed BENCH_*.json files must be exactly EXPERIMENTS.md's artifacts"
    );

    for (file, id) in &artifacts {
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("{file} must be readable: {e}"));
        let artifact: Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{file} must parse: {e}"));
        let field = |key: &str| {
            artifact
                .get(key)
                .unwrap_or_else(|| panic!("{file} has no `{key}`"))
        };
        assert_eq!(field("experiment").as_str(), Some(id.as_str()), "{file}");
        assert_eq!(
            field("mode").as_str(),
            Some("full"),
            "{file}: a committed artifact must come from a full run, not --quick"
        );
        assert!(field("seed").as_u64().is_some(), "{file}: bad seed");
        assert!(
            field("available_parallelism").as_u64() >= Some(1),
            "{file}: bad available_parallelism"
        );
        let command = format!("cargo run -p renaming-bench --release --bin experiments -- {id} ");
        assert!(
            field("reproduce")
                .as_str()
                .is_some_and(|reproduce| reproduce.starts_with(&command)),
            "{file}: `reproduce` must start with `{command}`"
        );
        let Value::Object(fields) = &artifact else {
            panic!("{file} is not a JSON object");
        };
        let opening: Vec<&str> = fields.iter().take(5).map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            opening,
            ["experiment", "mode", "seed", "available_parallelism", "reproduce"],
            "{file} must open with the shared header"
        );
    }
}

#[test]
fn experiments_md_is_linked_from_readme_and_facade() {
    let root = repo_root();
    for (file, must_mention) in [
        ("README.md", "EXPERIMENTS.md"),
        ("src/lib.rs", "EXPERIMENTS.md"),
        ("EXPERIMENTS.md", "ARCHITECTURE.md"),
    ] {
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("{file} must exist: {e}"));
        assert!(
            text.contains(must_mention),
            "{file} no longer references {must_mention}"
        );
    }
}
