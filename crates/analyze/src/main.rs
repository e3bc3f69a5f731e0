//! CLI for the workspace invariant analyzer.
//!
//! ```text
//! cargo run -p ispot-analyze --release                     # gate the workspace
//! cargo run -p ispot-analyze --release -- --fixture-mode \
//!     crates/analyze/tests/fixtures/seeded.rs              # must exit non-zero
//! ```
//!
//! With no path arguments the whole workspace is scanned under the
//! [`Manifest::workspace`] rule scoping, every manifest entry is checked
//! against the tree, and the unsafe inventory is written to
//! `ANALYZE_unsafe.json` at the workspace root. With explicit paths only those
//! files/directories are scanned and no inventory is written unless `--json`
//! names a destination. `--fixture-mode` treats every scanned file as
//! hot-path/determinism-scoped, which is how the seeded-violation fixtures
//! exercise every rule.
//!
//! Exit status: 0 when clean, 1 when any violation (including an undocumented
//! `unsafe`) was found, 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use ispot_analyze::report::{render_violations, unsafe_inventory_json};
use ispot_analyze::{workspace_root, Analysis, Analyzer, Manifest};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    fixture_mode: bool,
    json_out: Option<PathBuf>,
    quiet: bool,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        fixture_mode: false,
        json_out: None,
        quiet: false,
        paths: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fixture-mode" => opts.fixture_mode = true,
            "--quiet" => opts.quiet = true,
            "--json" => {
                let path = args.next().ok_or("--json requires a path")?;
                opts.json_out = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: ispot-analyze [--fixture-mode] [--quiet] [--json <path>] \
                            [paths...]"
                        .to_string(),
                )
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let manifest = if opts.fixture_mode {
        Manifest::all_hot()
    } else {
        Manifest::workspace()
    };
    let analyzer = Analyzer::new(manifest);
    let root = workspace_root();

    let (analysis, write_default_json) = if opts.paths.is_empty() {
        match analyzer.analyze_workspace(&root) {
            Ok(a) => (a, true),
            Err(e) => {
                eprintln!("ispot-analyze: failed to scan {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        let mut total = Analysis::default();
        for path in &opts.paths {
            let path = if path.is_absolute() {
                path.clone()
            } else {
                root.join(path)
            };
            let result = if path.is_dir() {
                analyzer.analyze_tree(&path)
            } else {
                std::fs::read_to_string(&path).map(|src| {
                    analyzer.analyze_source(&path.to_string_lossy().replace('\\', "/"), &src)
                })
            };
            match result {
                Ok(a) => {
                    total.violations.extend(a.violations);
                    total.unsafe_inventory.extend(a.unsafe_inventory);
                    total.files_scanned += a.files_scanned;
                }
                Err(e) => {
                    eprintln!("ispot-analyze: failed to scan {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        (total, false)
    };

    let json_path = opts
        .json_out
        .clone()
        .or_else(|| write_default_json.then(|| root.join("ANALYZE_unsafe.json")));
    if let Some(json_path) = json_path {
        let json = unsafe_inventory_json(&analysis.unsafe_inventory);
        if let Err(e) = std::fs::write(&json_path, json) {
            eprintln!(
                "ispot-analyze: failed to write {}: {e}",
                json_path.display()
            );
            return ExitCode::from(2);
        }
        if !opts.quiet {
            println!("unsafe inventory written to {}", json_path.display());
        }
    }

    let covered = analysis
        .unsafe_inventory
        .iter()
        .filter(|e| e.site.covered())
        .count();
    if !opts.quiet {
        if !analysis.violations.is_empty() {
            print!("{}", render_violations(&analysis.violations));
        }
        println!(
            "ispot-analyze: {} files, {} unsafe sites ({} documented), {} violation(s)",
            analysis.files_scanned,
            analysis.unsafe_inventory.len(),
            covered,
            analysis.violations.len()
        );
    }

    if analysis.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
