//! # ispot-analyze
//!
//! Static workspace invariant analyzer for the I-SPOT real-time acoustic
//! perception stack. The runtime counting-allocator tests
//! (`crates/ssl/tests/zero_alloc.rs`, `crates/core/tests/zero_alloc.rs`) prove
//! the hot paths allocation-free for a handful of scenarios; this crate makes
//! the same invariants *statically checked properties of the whole workspace*,
//! so a new branch that panics, allocates, or silently falls back to libm
//! `mul_add` fails CI before it ships.
//!
//! Three rule families (details in [`rules`]):
//!
//! 1. **Hot-path discipline** — panicking and allocating constructs are denied
//!    inside a declarative manifest of hot-path functions ([`manifest`]).
//! 2. **Unsafe audit** — every `unsafe` needs an adjacent `// SAFETY:`
//!    comment; the full inventory is emitted as `ANALYZE_unsafe.json`.
//! 3. **Determinism guards** — bare `mul_add` outside the dispatched SIMD
//!    wrappers and `HashMap` in scoring code are denied.
//!
//! Denials are waived per site with
//! `// analyze: allow(<rule>) — <justification>`.
//!
//! The analyzer is dependency-free by construction: a hand-rolled lexer
//! ([`lexer`]) skips strings, comments and `#[cfg(test)]` regions, and a
//! structural pass ([`scan`]) recovers function spans and unsafe sites.
//!
//! Run it over the workspace with:
//!
//! ```text
//! cargo run -p ispot-analyze --release
//! ```

#![forbid(unsafe_code)]

pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod scan;

pub use manifest::Manifest;
pub use report::InventoryEntry;
pub use rules::{Rule, Violation};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All violations, in (file, line) order.
    pub violations: Vec<Violation>,
    /// Every `unsafe` site encountered, for the JSON inventory.
    pub unsafe_inventory: Vec<InventoryEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Whether the scanned tree satisfies every invariant.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The analyzer: a manifest plus entry points for single files and trees.
#[derive(Debug)]
pub struct Analyzer {
    manifest: Manifest,
}

impl Analyzer {
    /// Creates an analyzer with the given manifest.
    pub fn new(manifest: Manifest) -> Self {
        Analyzer { manifest }
    }

    /// Analyzes one file's source text under a workspace-relative path.
    pub fn analyze_source(&self, rel_path: &str, source: &str) -> Analysis {
        let lexed = lexer::lex(source);
        let st = scan::scan(&lexed);
        let violations = rules::check_file(rel_path, &lexed, &st, &self.manifest);
        let unsafe_inventory = st
            .unsafe_sites
            .iter()
            .map(|site| InventoryEntry {
                file: rel_path.to_string(),
                site: site.clone(),
            })
            .collect();
        Analysis {
            violations,
            unsafe_inventory,
            files_scanned: 1,
        }
    }

    /// Analyzes the workspace rooted at `root`: [`Analyzer::analyze_tree`],
    /// plus a `stale_manifest` violation for every hot-path manifest entry
    /// whose file is missing under `root` or that lists a function the file
    /// does not define ([`rules::check_manifest_entry`]).
    pub fn analyze_workspace(&self, root: &Path) -> io::Result<Analysis> {
        let mut analysis = self.analyze_tree(root)?;
        for entry in &self.manifest.hot_paths {
            let source = fs::read_to_string(root.join(&entry.file)).ok();
            analysis
                .violations
                .extend(rules::check_manifest_entry(entry, source.as_deref()));
        }
        analysis
            .violations
            .sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
        Ok(analysis)
    }

    /// Analyzes every `.rs` file under `root`, excluding build output
    /// (`target/`), VCS metadata, and the analyzer's own violation fixtures.
    pub fn analyze_tree(&self, root: &Path) -> io::Result<Analysis> {
        let mut files = Vec::new();
        collect_rs_files(root, root, &mut files)?;
        files.sort();
        let mut total = Analysis::default();
        for rel in files {
            let source = fs::read_to_string(root.join(&rel))?;
            let rel_str = rel
                .to_string_lossy()
                .replace(std::path::MAIN_SEPARATOR, "/");
            let one = self.analyze_source(&rel_str, &source);
            total.violations.extend(one.violations);
            total.unsafe_inventory.extend(one.unsafe_inventory);
            total.files_scanned += 1;
        }
        total
            .violations
            .sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
        Ok(total)
    }
}

/// Paths (relative, `/`-separated) that the tree walk skips.
const EXCLUDED_DIR_NAMES: [&str; 2] = ["target", ".git"];
const EXCLUDED_SUBTREES: [&str; 1] = ["crates/analyze/tests/fixtures"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        if path.is_dir() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if EXCLUDED_DIR_NAMES.contains(&name.as_ref())
                || EXCLUDED_SUBTREES.iter().any(|s| rel == *s)
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from this crate's manifest directory
/// to the directory whose `Cargo.toml` declares `[workspace]`.
pub fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
