//! The workspace self-scan: the analyzer applied to the tree it ships in.
//!
//! This is the test-suite twin of the `cargo run -p ispot-analyze` CI gate: it
//! asserts that the workspace holds zero unjustified violations and that every
//! `unsafe` site — in particular all of `dsp` and `ssl`, where the SIMD
//! kernels live — carries a `// SAFETY:` justification.

use ispot_analyze::{workspace_root, Analyzer, Manifest};

#[test]
fn workspace_has_zero_unjustified_violations() {
    let analysis = Analyzer::new(Manifest::workspace())
        .analyze_workspace(&workspace_root())
        .expect("workspace tree must be readable");
    assert!(
        analysis.violations.is_empty(),
        "workspace invariant violations:\n{}",
        ispot_analyze::report::render_violations(&analysis.violations)
    );
    // Sanity: the scan actually covered the tree (9 crates + umbrella +
    // vendor stand-ins), not an empty directory.
    assert!(
        analysis.files_scanned > 100,
        "only {} files scanned — walker broken?",
        analysis.files_scanned
    );
}

#[test]
fn every_unsafe_site_in_dsp_and_ssl_is_documented() {
    let analysis = Analyzer::new(Manifest::workspace())
        .analyze_tree(&workspace_root())
        .expect("workspace tree must be readable");
    let dsp_ssl: Vec<_> = analysis
        .unsafe_inventory
        .iter()
        .filter(|e| e.file.starts_with("crates/dsp/") || e.file.starts_with("crates/ssl/"))
        .collect();
    assert!(
        !dsp_ssl.is_empty(),
        "the SIMD kernels hold unsafe code; an empty inventory means the scan missed them"
    );
    for entry in &dsp_ssl {
        assert!(
            entry.site.covered(),
            "{}:{} unsafe {} lacks a SAFETY comment",
            entry.file,
            entry.site.line,
            entry.site.kind.label()
        );
    }
    // And nothing outside dsp/ssl is undocumented either.
    for entry in &analysis.unsafe_inventory {
        assert!(
            entry.site.covered(),
            "{}:{} unsafe {} lacks a SAFETY comment",
            entry.file,
            entry.site.line,
            entry.site.kind.label()
        );
    }
}

#[test]
fn unsafe_code_stays_confined_to_dsp_and_ssl() {
    let analysis = Analyzer::new(Manifest::workspace())
        .analyze_tree(&workspace_root())
        .expect("workspace tree must be readable");
    for entry in &analysis.unsafe_inventory {
        let allowed = entry.file.starts_with("crates/dsp/")
            || entry.file.starts_with("crates/ssl/")
            || entry.file.starts_with("crates/core/tests/")
            || entry.file.starts_with("crates/serve/tests/");
        assert!(
            allowed,
            "{}:{} introduces unsafe outside the audited crates (dsp, ssl, and the \
             counting-allocator test harnesses); extend the audit deliberately if this is intended",
            entry.file, entry.site.line
        );
    }
}
