//! Rule matching over the scanned token stream.
//!
//! Three rule families (see ARCHITECTURE.md "Static invariant enforcement"):
//!
//! 1. **Hot-path discipline** — inside manifest-listed functions, constructs
//!    that panic or allocate are denied: `panic!`, `.unwrap()`, `.expect(`,
//!    `vec!`, `.to_vec()`, `.collect(`, `format!`, `Box::new`, `String::from`.
//! 2. **Determinism guards** — bare `f32::mul_add` / `f64::mul_add` calls are
//!    denied outside the SIMD wrapper module (on hosts without the `fma`
//!    target feature they lower to libm calls, a measured ~40× slowdown, and
//!    fused/unfused rounding differs); `F32x8::mul_add::<FUSED>` is
//!    distinguishable because it always carries a const-generic turbofish.
//!    `std::collections::HashMap` is denied in scoring/metrics files whose
//!    iteration order would feed pinned bench numbers.
//! 3. **Unsafe audit** — handled in [`crate::scan`]; a missing `// SAFETY:`
//!    comment surfaces here as an `unsafe_no_safety` violation.
//!
//! A hot-path manifest entry whose file is gone, or that lists a function the
//! file no longer defines, is itself a violation (`stale_manifest`, see
//! [`check_manifest_entry`]): such an entry checks nothing, so the gate
//! would silently stop covering whatever replaced it.
//!
//! Any denial (except `unsafe_no_safety`, whose fix *is* a comment) can be
//! waived with an inline justification on the same or the preceding line:
//!
//! ```text
//! // analyze: allow(expect) — discard is bounded by available(), checked above
//! ```
//!
//! The rule list in `allow(…)` may be comma-separated; the justification after
//! the `—` (also accepted: `--` or `:`) must be non-empty. Unknown rule names
//! in an allow are themselves reported, so waivers cannot rot silently.

use crate::lexer::{Lexed, Tok};
use crate::manifest::{HotPathEntry, HotScope, Manifest};
use crate::scan::Structure;

/// Rule identifiers, as used in `analyze: allow(<rule>)` comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `panic!` in a hot-path function.
    Panic,
    /// `.unwrap()` in a hot-path function.
    Unwrap,
    /// `.expect(` in a hot-path function.
    Expect,
    /// An allocating construct in a hot-path function.
    Alloc,
    /// Bare `mul_add` outside the SIMD wrapper module.
    MulAdd,
    /// `HashMap` in ordering-sensitive scoring code.
    HashMap,
    /// `unsafe` without an adjacent `SAFETY:` comment.
    UnsafeNoSafety,
    /// A malformed or unknown `analyze: allow(...)` comment.
    BadAllow,
    /// A hot-path manifest entry naming a missing file or function.
    StaleManifest,
}

impl Rule {
    /// The stable name used in allow-comments and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Unwrap => "unwrap",
            Rule::Expect => "expect",
            Rule::Alloc => "alloc",
            Rule::MulAdd => "mul_add",
            Rule::HashMap => "hash_map",
            Rule::UnsafeNoSafety => "unsafe_no_safety",
            Rule::BadAllow => "bad_allow",
            Rule::StaleManifest => "stale_manifest",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        Some(match name {
            "panic" => Rule::Panic,
            "unwrap" => Rule::Unwrap,
            "expect" => Rule::Expect,
            "alloc" => Rule::Alloc,
            "mul_add" => Rule::MulAdd,
            "hash_map" => Rule::HashMap,
            "unsafe_no_safety" => Rule::UnsafeNoSafety,
            _ => return None,
        })
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
    /// Enclosing function, when known.
    pub function: Option<String>,
}

/// Allows parsed from one comment line.
#[derive(Debug, Default, Clone)]
struct LineAllows {
    rules: Vec<Rule>,
    malformed: Option<String>,
}

/// Parses every `analyze: allow(...)` comment in the file into a per-line map.
///
/// The directive must *start* the comment (`// analyze: …`); an `analyze:`
/// mentioned mid-sentence — e.g. documentation describing the grammar — is
/// prose, not a waiver.
fn parse_allows(lexed: &Lexed) -> std::collections::BTreeMap<u32, LineAllows> {
    let mut map = std::collections::BTreeMap::new();
    for (&line, text) in &lexed.comments {
        if let Some(directive) = text.trim_start().strip_prefix("analyze:") {
            let rest = directive.trim_start();
            let mut allows = LineAllows::default();
            if let Some(rest) = rest.strip_prefix("allow(") {
                if let Some(close) = rest.find(')') {
                    let names = &rest[..close];
                    let after = rest[close + 1..].trim_start();
                    let justification = after
                        .strip_prefix('\u{2014}') // em dash
                        .or_else(|| after.strip_prefix("--"))
                        .or_else(|| after.strip_prefix(':'))
                        .map(str::trim);
                    match justification {
                        Some(j) if !j.is_empty() => {
                            for name in names.split(',').map(str::trim) {
                                match Rule::from_name(name) {
                                    Some(r) => allows.rules.push(r),
                                    None => {
                                        allows.malformed =
                                            Some(format!("unknown rule `{name}` in allow-comment"));
                                    }
                                }
                            }
                        }
                        _ => {
                            allows.malformed = Some(
                                "allow-comment is missing a `— justification` clause".to_string(),
                            );
                        }
                    }
                } else {
                    allows.malformed = Some("unterminated allow(...) comment".to_string());
                }
            } else {
                allows.malformed =
                    Some("`analyze:` comment without a recognised directive".to_string());
            }
            map.insert(line, allows);
        }
    }
    map
}

/// Checks every rule against one file. `rel_path` uses `/` separators.
pub fn check_file(
    rel_path: &str,
    lexed: &Lexed,
    st: &Structure,
    manifest: &Manifest,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let allows = parse_allows(lexed);

    for (line, a) in &allows {
        if let Some(msg) = &a.malformed {
            out.push(Violation {
                file: rel_path.to_string(),
                line: *line,
                rule: Rule::BadAllow,
                message: msg.clone(),
                function: None,
            });
        }
    }

    // A waiver covers its own line and any code line directly below the
    // contiguous comment block it belongs to (so multi-line justifications
    // work).
    let allowed = |rule: Rule, line: u32| -> bool {
        let hit = |l: u32| allows.get(&l).is_some_and(|a| a.rules.contains(&rule));
        if hit(line) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let flags = lexed.flags(l);
            if !flags.has_comment || flags.has_code {
                break;
            }
            if hit(l) {
                return true;
            }
            l -= 1;
        }
        false
    };

    let hot_scope = manifest.hot_scope(rel_path);
    let in_hot_fn = |idx: usize| -> Option<Option<String>> {
        let scope = hot_scope.as_ref()?;
        let current = st.enclosing_fn(idx);
        match scope {
            HotScope::AllFunctions => Some(current.map(str::to_string)),
            HotScope::Functions(names) => {
                let name = current?;
                names
                    .iter()
                    .any(|n| n == name)
                    .then(|| Some(name.to_string()))
            }
        }
    };

    let toks = &lexed.tokens;
    let prev = |i: usize| -> Option<&Tok> { i.checked_sub(1).and_then(|j| toks.get(j)) };
    let next = |i: usize| -> Option<&Tok> { toks.get(i + 1) };

    let mut push = |rule: Rule, line: u32, message: String, function: Option<String>| {
        if !allowed(rule, line) {
            out.push(Violation {
                file: rel_path.to_string(),
                line,
                rule,
                message,
                function,
            });
        }
    };

    for (i, t) in toks.iter().enumerate() {
        let Some(ident) = t.ident() else { continue };
        if st.in_tests(i) {
            continue;
        }

        // Determinism: bare `mul_add` (no const-generic turbofish) anywhere
        // outside the wrapper module.
        if ident == "mul_add" && !manifest.is_mul_add_wrapper(rel_path) {
            let turbofish = next(i).is_some_and(|n| n.is_punct(':'));
            if !turbofish {
                push(
                    Rule::MulAdd,
                    t.line,
                    "bare `mul_add` lowers to libm without the `fma` target feature (~40x) and \
                     changes rounding; use the dispatched wrappers in `ispot_dsp::simd`"
                        .to_string(),
                    st.enclosing_fn(i).map(str::to_string),
                );
            }
            continue;
        }

        // Ordering: HashMap in scoring/metrics code.
        if ident == "HashMap" && manifest.is_ordered_scoring(rel_path) {
            push(
                Rule::HashMap,
                t.line,
                "HashMap iteration order is nondeterministic; scoring/metrics must use BTreeMap \
                 or sorted Vec so pinned bench numbers stay stable"
                    .to_string(),
                st.enclosing_fn(i).map(str::to_string),
            );
            continue;
        }

        // Hot-path discipline, scoped by the manifest.
        let Some(function) = in_hot_fn(i) else {
            continue;
        };
        let dotted = prev(i).is_some_and(|p| p.is_punct('.'));
        let banged = next(i).is_some_and(|n| n.is_punct('!'));
        let pathed = next(i).is_some_and(|n| n.is_punct(':'));

        let hit = match ident {
            "panic" if banged => Some((Rule::Panic, "`panic!` in a hot path")),
            "unwrap" if dotted => Some((Rule::Unwrap, "`.unwrap()` can panic in a hot path")),
            "expect" if dotted => Some((Rule::Expect, "`.expect()` can panic in a hot path")),
            "vec" if banged => Some((Rule::Alloc, "`vec!` allocates in a hot path")),
            "format" if banged => Some((Rule::Alloc, "`format!` allocates in a hot path")),
            "to_vec" if dotted => Some((Rule::Alloc, "`.to_vec()` allocates in a hot path")),
            "collect" if dotted => Some((Rule::Alloc, "`.collect()` allocates in a hot path")),
            "Box" if pathed && toks.get(i + 3).is_some_and(|n| n.is_ident("new")) => {
                Some((Rule::Alloc, "`Box::new` allocates in a hot path"))
            }
            "String" if pathed && toks.get(i + 3).is_some_and(|n| n.is_ident("from")) => {
                Some((Rule::Alloc, "`String::from` allocates in a hot path"))
            }
            _ => None,
        };
        if let Some((rule, msg)) = hit {
            push(rule, t.line, msg.to_string(), function);
        }
    }

    // Unsafe audit: structural scan already found the sites; uncovered ones
    // are violations (never waivable by allow-comment — write the SAFETY
    // comment instead).
    for site in &st.unsafe_sites {
        if !site.covered() {
            out.push(Violation {
                file: rel_path.to_string(),
                line: site.line,
                rule: Rule::UnsafeNoSafety,
                message: format!(
                    "`unsafe` {} without an adjacent `// SAFETY:` comment",
                    site.kind.label()
                ),
                function: None,
            });
        }
    }

    out.sort_by(|a, b| (a.line, a.rule.name()).cmp(&(b.line, b.rule.name())));
    out
}

/// Checks one hot-path manifest entry against the source of the file it
/// names (`None` when that file does not exist): a missing file, or a listed
/// function with no non-test `fn` of that name in the file, is a
/// [`Rule::StaleManifest`] violation. Reported at line 0 of the named file.
pub fn check_manifest_entry(entry: &HotPathEntry, source: Option<&str>) -> Vec<Violation> {
    let stale = |message: String, function: Option<String>| Violation {
        file: entry.file.clone(),
        line: 0,
        rule: Rule::StaleManifest,
        message,
        function,
    };
    let Some(source) = source else {
        return vec![stale(
            "hot-path manifest entry names a file that does not exist".to_string(),
            None,
        )];
    };
    let HotScope::Functions(names) = &entry.scope else {
        return Vec::new();
    };
    let st = crate::scan::scan(&crate::lexer::lex(source));
    names
        .iter()
        .filter(|name| {
            !st.functions
                .iter()
                .any(|f| f.name == **name && !st.in_tests(f.body.start))
        })
        .map(|name| {
            stale(
                format!("hot-path manifest lists `{name}`, but the file defines no such fn"),
                Some(name.clone()),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scan::scan;

    fn run(path: &str, src: &str, manifest: &Manifest) -> Vec<Violation> {
        let lexed = lex(src);
        let st = scan(&lexed);
        check_file(path, &lexed, &st, manifest)
    }

    #[test]
    fn hot_function_scoping_spares_constructors() {
        let manifest = Manifest {
            hot_paths: vec![crate::manifest::HotPathEntry {
                file: "x.rs".into(),
                scope: HotScope::Functions(vec!["hot".into()]),
            }],
            ..Manifest::default()
        };
        let src = "fn cold() { let v = vec![1]; }\nfn hot() { let v = vec![1]; }\n";
        let v = run("crates/a/src/x.rs", src, &manifest);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, Rule::Alloc);
        assert_eq!(v[0].function.as_deref(), Some("hot"));
    }

    #[test]
    fn allow_comment_waives_and_requires_justification() {
        let manifest = Manifest::all_hot();
        let ok = "fn hot() {\n    // analyze: allow(unwrap) — statically infallible here\n    x.unwrap();\n}\n";
        assert!(run("f.rs", ok, &manifest).is_empty());
        let missing = "fn hot() {\n    // analyze: allow(unwrap)\n    x.unwrap();\n}\n";
        let v = run("f.rs", missing, &manifest);
        assert!(v.iter().any(|v| v.rule == Rule::BadAllow));
        assert!(v.iter().any(|v| v.rule == Rule::Unwrap));
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let manifest = Manifest::all_hot();
        let src = "fn hot() {\n    // analyze: allow(unwarp) — typo\n    x.unwrap();\n}\n";
        let v = run("f.rs", src, &manifest);
        assert!(v.iter().any(|v| v.rule == Rule::BadAllow));
    }

    #[test]
    fn turbofish_mul_add_is_the_wrapper_not_the_footgun() {
        let manifest = Manifest::workspace();
        let src = "fn k(w: F32x8, t: F32x8, a: F32x8) -> F32x8 { w.mul_add::<false>(t, a) }\n";
        assert!(run("crates/ssl/src/srp_kernels.rs", src, &manifest).is_empty());
        let bare = "fn k(x: f32) -> f32 { x.mul_add(2.0, 1.0) }\n";
        let v = run("crates/ssl/src/srp_kernels.rs", bare, &manifest);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::MulAdd);
        // ... and the wrapper module itself may use it.
        assert!(run("crates/dsp/src/simd.rs", bare, &manifest).is_empty());
    }

    #[test]
    fn hashmap_denied_only_in_scoring_files() {
        let manifest = Manifest::workspace();
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, f64> = HashMap::new(); }\n";
        assert!(!run("crates/ssl/src/metrics.rs", src, &manifest).is_empty());
        assert!(run("crates/ssl/src/steering.rs", src, &manifest).is_empty());
    }

    #[test]
    fn stale_manifest_entries_are_violations() {
        let entry = HotPathEntry {
            file: "crates/a/src/x.rs".into(),
            scope: HotScope::Functions(vec!["hot".into(), "no_such_function_xyz".into()]),
        };
        // A test-only fn of the listed name does not keep the entry alive.
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn no_such_function_xyz() {}\n}\n";
        let v = check_manifest_entry(&entry, Some(src));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::StaleManifest);
        assert_eq!(v[0].function.as_deref(), Some("no_such_function_xyz"));

        let missing = check_manifest_entry(&entry, None);
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].rule, Rule::StaleManifest);
        assert_eq!(missing[0].file, "crates/a/src/x.rs");

        let whole_file = HotPathEntry {
            file: "crates/a/src/k.rs".into(),
            scope: HotScope::AllFunctions,
        };
        assert!(check_manifest_entry(&whole_file, Some("")).is_empty());
        assert_eq!(check_manifest_entry(&whole_file, None).len(), 1);
    }

    #[test]
    fn test_regions_are_exempt_from_hot_rules_but_not_unsafe_audit() {
        let manifest = Manifest::all_hot();
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); unsafe { y() } }\n}\n";
        let v = run("f.rs", src, &manifest);
        assert!(!v.iter().any(|v| v.rule == Rule::Unwrap));
        assert!(v.iter().any(|v| v.rule == Rule::UnsafeNoSafety));
    }
}
