//! Misspelling any key or section header of a pinned manifest must make it
//! fail to parse, with an error naming the misspelt key and its section. A
//! manifest that still parsed would assert or pin less than it says, and
//! pass anyway.

use scenarios::manifest::ScenarioManifest;
use scenarios::suite_dir;
use std::path::PathBuf;

/// Swap the last two different neighbouring characters (`digests` →
/// `digetss`, `loss` → `lsos`); a one-character key is doubled instead.
fn misspell(name: &str) -> String {
    let mut chars: Vec<char> = name.chars().collect();
    match (1..chars.len()).rev().find(|&i| chars[i - 1] != chars[i]) {
        Some(i) => chars.swap(i - 1, i),
        None => chars.push(chars[0]),
    }
    let misspelt: String = chars.into_iter().collect();
    assert_ne!(misspelt, name, "misspelling must change `{name}`");
    misspelt
}

/// The key of a `key = value` line, if the line is one.
fn key_of(line: &str) -> Option<&str> {
    let (key, _) = line.split_once('=')?;
    let key = key.trim();
    let bare = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    bare.then_some(key)
}

/// A mutated copy of the manifest, the misspelt name, and the section the
/// error must name.
struct Mutant {
    text: String,
    misspelt: String,
    section: String,
}

fn mutants(text: &str) -> Vec<Mutant> {
    let lines: Vec<&str> = text.lines().collect();
    let with_line = |i: usize, line: String| {
        let mut copy: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        copy[i] = line;
        copy.join("\n")
    };
    let mut out = Vec::new();
    let mut section = "top level".to_string();
    for (i, raw) in lines.iter().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') || line.starts_with('"') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let array = header.starts_with('[');
            let path = header.trim_matches(|c| c == '[' || c == ']');
            let (parent, name) = match path.rsplit_once('.') {
                Some((parent, name)) => (format!("[{parent}]"), name),
                None => ("top level".to_string(), path),
            };
            let misspelt = misspell(name);
            let new_path = match path.rsplit_once('.') {
                Some((parent, _)) => format!("{parent}.{misspelt}"),
                None => misspelt.clone(),
            };
            let new_header = if array {
                format!("[[{new_path}]]")
            } else {
                format!("[{new_path}]")
            };
            out.push(Mutant {
                text: with_line(i, new_header),
                misspelt,
                section: parent,
            });
            section = if array {
                format!("[[{path}]]")
            } else {
                format!("[{path}]")
            };
        } else if let Some(key) = key_of(line) {
            let misspelt = misspell(key);
            out.push(Mutant {
                text: with_line(i, raw.replacen(key, &misspelt, 1)),
                misspelt,
                section: section.clone(),
            });
        }
    }
    out
}

fn suite() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(suite_dir())
        .expect("suite directory")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn every_misspelt_key_and_header_of_the_suite_is_rejected_by_name() {
    let paths = suite();
    assert_eq!(paths.len(), 24, "the pinned suite has 24 manifests");
    let mut checked = 0;
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("manifest reads");
        ScenarioManifest::parse(&text).expect("the pinned manifest parses");
        for mutant in mutants(&text) {
            let err = match ScenarioManifest::parse(&mutant.text) {
                Ok(_) => panic!(
                    "{}: misspelt `{}` in {} still parses",
                    path.display(),
                    mutant.misspelt,
                    mutant.section
                ),
                Err(err) => err.0,
            };
            assert!(
                err.contains(&format!("`{}`", mutant.misspelt)) && err.contains(&mutant.section),
                "{}: misspelt `{}` in {}: error does not name both: {err}",
                path.display(),
                mutant.misspelt,
                mutant.section
            );
            checked += 1;
        }
    }
    assert!(checked > 400, "only {checked} mutants checked");
}

/// The two misspellings that used to parse into a manifest pinning and
/// asserting nothing.
#[test]
fn misspelt_golden_and_assertion_keys_are_rejected() {
    let text = std::fs::read_to_string(suite_dir().join("s01_stationary_line.toml"))
        .expect("manifest reads");
    for (from, to, expected) in [
        (
            "digests = [",
            "digest = [",
            "[golden]: `digest`: unknown key",
        ),
        (
            "agreement = true",
            "agreemnt = true",
            "[assertions]: `agreemnt`: unknown key",
        ),
    ] {
        assert!(text.contains(from), "s01 sets `{from}`");
        let err = ScenarioManifest::parse(&text.replacen(from, to, 1))
            .expect_err(expected)
            .0;
        assert!(err.contains(expected), "expected `{expected}`, got `{err}`");
    }
}
