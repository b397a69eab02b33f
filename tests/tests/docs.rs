//! The docs that list a closed set list the set the code has: the trace
//! kinds in `docs/verify.md`, the machine's config fields and event
//! variants in `docs/architecture.md`, the crate maps in
//! `docs/architecture.md` and `README.md`, and the items DESIGN.md's crate
//! table names. The one calibrated constant DESIGN.md states, Fig. 2's
//! entry-consistency handler time, is the one the code uses.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use sesame_sim::{SimDur, TraceKind};
use sesame_workloads::task_queue::EC_HANDLER;

/// A path under the workspace root.
fn root(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(path)
}

fn read(path: &str) -> String {
    let file = root(path);
    fs::read_to_string(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()))
}

/// The `` `code` `` spans of `text`, in order.
fn code_spans(text: &str) -> Vec<&str> {
    text.split('`').skip(1).step_by(2).collect()
}

/// The text of `doc` after `start`, up to the first `end` after it.
fn between<'a>(doc: &'a str, start: &str, end: &str) -> &'a str {
    let from = doc.find(start).unwrap_or_else(|| panic!("no {start:?}")) + start.len();
    let len = doc[from..]
        .find(end)
        .unwrap_or_else(|| panic!("no {end:?}"));
    &doc[from..from + len]
}

/// The lines of `src` inside the item whose header line is `header`, up to
/// the `}` that closes it at column 0.
fn item_body<'a>(src: &'a str, header: &str) -> Vec<&'a str> {
    let mut lines = src.lines().skip_while(|l| *l != header).skip(1);
    lines.by_ref().take_while(|l| *l != "}").collect()
}

/// The identifier a line of an item body declares at the body's own
/// indent (a field or a variant), if it declares one.
fn declared(line: &str) -> Option<&str> {
    let line = line.strip_prefix("    ")?;
    let line = line.strip_prefix("pub ").unwrap_or(line);
    let end = line.find(|c: char| !(c.is_alphanumeric() || c == '_'))?;
    Some(&line[..end]).filter(|name| !name.is_empty())
}

#[test]
fn verify_md_tabulates_every_trace_kind_and_its_spelling() {
    let doc = read("docs/verify.md");
    let rows: Vec<(String, String)> = doc
        .lines()
        .skip_while(|l| !l.starts_with("| `TraceKind` |"))
        .skip(2)
        .take_while(|l| l.starts_with("| `"))
        .map(|row| {
            let cells = code_spans(row);
            (cells[0].to_string(), cells[1].to_string())
        })
        .collect();
    let code: Vec<(String, String)> = TraceKind::ALL
        .iter()
        .map(|k| (format!("{k:?}"), k.as_str().to_string()))
        .collect();
    assert_eq!(rows, code);
    let count = format!("All {} kinds", TraceKind::ALL.len());
    assert!(doc.contains(&count), "verify.md must say {count:?}");
}

#[test]
fn architecture_md_names_every_machine_config_field_and_event_variant() {
    let doc = read("docs/architecture.md");
    let src = read("crates/dsm/src/machine.rs");
    let fields: Vec<&str> = item_body(&src, "pub struct MachineConfig {")
        .into_iter()
        .filter_map(declared)
        .collect();
    let variants: Vec<&str> = item_body(&src, "pub enum DsmEvent {")
        .into_iter()
        .filter_map(declared)
        .collect();
    assert!(!fields.is_empty() && !variants.is_empty());

    let listed = between(&doc, "`MachineConfig` has one field", "and the protocol");
    assert_eq!(code_spans(listed), fields, "MachineConfig fields");
    assert_eq!(fields.len(), 1, "the doc says one field");
    let listed = between(&doc, "(`DsmEvent`:", ")");
    assert_eq!(code_spans(listed), variants, "DsmEvent variants");
}

#[test]
fn design_md_states_the_entry_consistency_handler_time_the_code_uses() {
    let design = read("DESIGN.md");
    let stated = between(&design, "`EC_HANDLER` = **", " µs**");
    let us: u64 = stated.parse().expect("a whole number of µs");
    assert_eq!(
        SimDur::from_us(us),
        EC_HANDLER,
        "DESIGN.md's substitutions row"
    );
    let fig2 = format!("EC handler {us} µs;");
    assert!(
        design.contains(&fig2),
        "DESIGN.md's Fig. 2 row must say {fig2:?}"
    );
    let protocol = format!("{us} µs in the Figure 2 reproduction");
    let doc = read("docs/PROTOCOL.md");
    assert!(doc.contains(&protocol), "PROTOCOL.md must say {protocol:?}");
}

#[test]
fn the_crate_maps_list_the_workspace_members() {
    let members = between(&read("Cargo.toml"), "members = [", "]").to_string();
    assert_eq!(members, r#""crates/*", "examples", "tests""#);
    let mut dirs = BTreeSet::new();
    let mut packages = BTreeSet::new();
    for entry in fs::read_dir(root("crates")).expect("crates/") {
        let dir = entry.expect("a directory entry").path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = between(&manifest, "name = \"", "\"").to_string();
        dirs.insert(dir.file_name().unwrap().to_string_lossy().into_owned());
        packages.insert(name);
    }

    let arch = read("docs/architecture.md");
    let mapped: BTreeSet<String> = between(&arch, "## Concept → crate map", "\n## ")
        .lines()
        .filter(|row| row.starts_with('|'))
        .filter_map(|row| row.split('|').nth(2))
        .flat_map(code_spans)
        .map(str::to_string)
        .collect();
    assert_eq!(mapped, packages, "docs/architecture.md's crate map");

    let readme = read("README.md");
    let block = between(&readme, "## Architecture", "\n```\n\n");
    let listed: BTreeSet<String> = block
        .lines()
        .filter_map(|l| l.strip_prefix("crates/"))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect();
    assert_eq!(listed, dirs, "README.md's crate map");
    for member in ["examples/", "tests/"] {
        assert!(block.lines().any(|l| l.starts_with(member)), "{member}");
    }
}

/// The names `dir`'s sources declare `pub`: every item (and field) after a
/// bare `pub`, and every name a `pub use` re-exports. A loose superset,
/// which is all a doc check needs: a deleted item leaves no such line.
fn pub_names(dir: &Path) -> BTreeSet<String> {
    const KEYWORDS: [&str; 10] = [
        "fn", "struct", "enum", "trait", "mod", "type", "const", "static", "unsafe", "async",
    ];
    let mut names = BTreeSet::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            if path.extension().is_none_or(|ext| ext != "rs") {
                continue;
            }
            let src = fs::read_to_string(&path).expect("a source file");
            let mut in_use = false;
            for line in src.lines() {
                let line = line.trim_start();
                let rest = match line.strip_prefix("pub ") {
                    Some(rest) => rest,
                    None if in_use => line,
                    None => continue,
                };
                let mut words = rest
                    .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .filter(|w| !w.is_empty());
                if in_use || rest.starts_with("use ") {
                    names.extend(words.map(str::to_string));
                    in_use = !line.contains(';');
                } else if let Some(name) = words.find(|w| !KEYWORDS.contains(w)) {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

#[test]
fn design_md_crate_table_names_only_pub_items_of_each_crate() {
    let doc = read("DESIGN.md");
    let table = between(&doc, "## Workspace inventory", "\n## ");
    let mut checked = 0;
    for row in table.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').collect();
        let path = code_spans(cells[2])[0];
        // Binary crates' rows name binaries and commands, not items.
        if !root(path).join("src/lib.rs").exists() {
            continue;
        }
        let names = pub_names(&root(path).join("src"));
        let is_path = |span: &&str| {
            span.starts_with(|c: char| c.is_alphabetic() || c == '_')
                && span
                    .chars()
                    .all(|c| c.is_alphanumeric() || c == '_' || c == ':')
        };
        for item in code_spans(cells[3]).into_iter().filter(is_path) {
            for segment in item.split("::") {
                assert!(
                    names.contains(segment),
                    "DESIGN.md's row for {path} names `{item}`, but no `pub` item `{segment}` is declared there"
                );
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 15,
        "only {checked} items checked: did the table move?"
    );
}
