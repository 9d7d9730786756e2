//! Workspace file discovery and the end-to-end analysis driver.
//!
//! The scanner covers everything whose behaviour reaches results, the
//! flight loop, or the test verdicts: `crates/*/src/**`,
//! `crates/*/tests/**`, `crates/*/examples/**`, the root facade's
//! `src/**`, root `examples/**`, and root `tests/**`. Which per-file rule
//! families apply is decided by [`classify`]'s [`LintProfile`]: library
//! code is `Strict`, driver code (`crates/bench`, root `examples/`) is
//! `Driver` (panic-tolerant), test code is `Relaxed` (determinism only).
//! Benches and the analyzer's own deliberately-bad `fixtures/` corpora
//! stay skipped. The cross-file families (TB/DT04/DT05/CC/BM) run over
//! the whole index regardless of profile.
//!
//! Per-file analysis fans out over the vendored rayon stand-in — one
//! read+tokenize+lint task per file — and results come back in input
//! order, so the report stays deterministic by construction. The symbol
//! pass ([`crate::taint`]) then runs once over the combined index.

use crate::allowlist::Allowlist;
use crate::lexer::{tokenize, Token};
use crate::rules::{analyze_source, analyze_tokens, FileContext, Finding, LintProfile, RuleId};
use crate::symbols::{CrateGraph, SymbolIndex};
use crate::taint::{symbol_findings, Boundaries};
use pidpiper_math::json::Json;
use pidpiper_math::json_object;
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Directory names never descended into. `tests/` and `examples/` are
/// scanned (relaxed/driver profiles); `fixtures/` holds the analyzer's
/// own deliberately-bad corpora and must stay out.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", "benches", "fixtures"];

/// A scan-level failure (I/O, malformed allowlist or boundary manifest).
#[derive(Debug)]
pub enum ScanError {
    /// A file or directory could not be read.
    Io(PathBuf, std::io::Error),
    /// The allow file had malformed lines.
    BadAllowlist(Vec<String>),
    /// The boundary manifest had malformed lines.
    BadBoundaries(Vec<String>),
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            ScanError::BadAllowlist(errs) => write!(f, "{}", errs.join("\n")),
            ScanError::BadBoundaries(errs) => write!(f, "{}", errs.join("\n")),
        }
    }
}

/// Result of a full scan.
#[derive(Debug)]
pub struct ScanReport {
    /// Surviving findings, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by the allowlist.
    pub suppressed: usize,
    /// Number of `.rs` files analyzed.
    pub files: usize,
}

/// Lists the workspace `.rs` files under analysis, as
/// `(absolute, workspace-relative)` pairs in deterministic (sorted) order.
pub fn workspace_files(root: &Path) -> Result<Vec<(PathBuf, String)>, ScanError> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs = read_dir_sorted(&crates_dir)?;
        crate_dirs.retain(|p| p.is_dir());
        for c in crate_dirs {
            collect_rs(&c.join("src"), &mut files)?;
            collect_rs(&c.join("tests"), &mut files)?;
            collect_rs(&c.join("examples"), &mut files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    // Root demo binaries and integration tests ride along under the
    // driver/relaxed profiles; `collect_rs` only prunes SKIP_DIRS when
    // *descending*, so handing it the directories themselves works.
    collect_rs(&root.join("examples"), &mut files)?;
    collect_rs(&root.join("tests"), &mut files)?;
    let mut out: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|abs| {
            let rel = abs
                .strip_prefix(root)
                .unwrap_or(&abs)
                .to_string_lossy()
                .replace('\\', "/");
            (abs, rel)
        })
        .collect();
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, ScanError> {
    let rd = std::fs::read_dir(dir).map_err(|e| ScanError::Io(dir.to_path_buf(), e))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| ScanError::Io(dir.to_path_buf(), e))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), ScanError> {
    if !dir.is_dir() {
        return Ok(());
    }
    for p in read_dir_sorted(dir)? {
        let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
        let name = name.unwrap_or_default();
        if p.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs(&p, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Derives `(crate_name, is_crate_root, profile)` from a
/// workspace-relative path. The root facade package is reported as
/// `pid-piper`; root demo binaries as the driver pseudo-crate `examples`.
pub fn classify(rel: &str) -> (String, bool, LintProfile) {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let crate_name = rest.split('/').next().unwrap_or(rest).to_string();
        let is_root = rest == format!("{crate_name}/src/lib.rs");
        let sub = rest
            .strip_prefix(&crate_name)
            .and_then(|r| r.strip_prefix('/'))
            .unwrap_or("");
        let profile = if sub.starts_with("tests/") || sub.starts_with("examples/") {
            LintProfile::Relaxed
        } else if crate_name == "bench" {
            LintProfile::Driver
        } else {
            LintProfile::Strict
        };
        (crate_name, is_root, profile)
    } else if rel.starts_with("examples/") {
        // Root demo binaries: panic-exempt drivers, never a crate root.
        ("examples".to_string(), false, LintProfile::Driver)
    } else if rel.starts_with("tests/") {
        ("pid-piper".to_string(), false, LintProfile::Relaxed)
    } else {
        (
            "pid-piper".to_string(),
            rel == "src/lib.rs",
            LintProfile::Strict,
        )
    }
}

/// Analyzes one source buffer under its workspace-relative path (per-file
/// rules only; the cross-file families need a whole file set — see
/// [`analyze_sources`]).
pub fn analyze_rel(rel: &str, src: &str) -> Vec<Finding> {
    let (crate_name, is_crate_root, profile) = classify(rel);
    analyze_source(
        FileContext {
            rel_path: rel,
            crate_name: &crate_name,
            is_crate_root,
            profile,
        },
        src,
    )
}

/// One file's parallel-scan result.
struct FileScan {
    rel: String,
    crate_name: String,
    src: String,
    tokens: Vec<Token>,
    findings: Vec<Finding>,
}

fn scan_one(abs: &Path, rel: &str) -> Result<FileScan, ScanError> {
    let src = std::fs::read_to_string(abs).map_err(|e| ScanError::Io(abs.to_path_buf(), e))?;
    let tokens = tokenize(&src);
    let (crate_name, is_crate_root, profile) = classify(rel);
    let findings = analyze_tokens(
        FileContext {
            rel_path: rel,
            crate_name: &crate_name,
            is_crate_root,
            profile,
        },
        &tokens,
    );
    Ok(FileScan {
        rel: rel.to_string(),
        crate_name,
        src,
        tokens,
        findings,
    })
}

/// Merges per-file findings with the cross-file symbol pass: where DT04
/// (interprocedural) and DT03 (per-file) hit the same `path:line`, the
/// interprocedural finding wins — it names the determinism root the hash
/// collection leaks into, which is the actionable part.
fn merge_findings(mut per_file: Vec<Finding>, symbol: Vec<Finding>) -> Vec<Finding> {
    let dt04_sites: BTreeSet<(&str, u32)> = symbol
        .iter()
        .filter(|f| f.rule == RuleId::Dt04ReachableUnordered)
        .map(|f| (f.path.as_str(), f.line))
        .collect();
    per_file.retain(|f| {
        f.rule != RuleId::Dt03UnorderedCollection
            || !dt04_sites.contains(&(f.path.as_str(), f.line))
    });
    per_file.extend(symbol);
    per_file
}

/// Analyzes a set of in-memory `(workspace-relative path, source)` buffers
/// end to end — per-file rules by profile plus the cross-file symbol pass
/// — without touching the filesystem or the allowlist. This is the core
/// the fixture and mutation tests drive.
pub fn analyze_sources(
    sources: &[(String, String)],
    boundaries: Option<&Boundaries>,
    graph: CrateGraph,
) -> Vec<Finding> {
    let mut per_file = Vec::new();
    let mut inputs = Vec::new();
    for (rel, src) in sources {
        let (crate_name, is_crate_root, profile) = classify(rel);
        let tokens = tokenize(src);
        per_file.extend(analyze_tokens(
            FileContext {
                rel_path: rel,
                crate_name: &crate_name,
                is_crate_root,
                profile,
            },
            &tokens,
        ));
        inputs.push((rel.clone(), crate_name, tokens));
    }
    let symbol = match boundaries {
        Some(b) if !b.entries.is_empty() => {
            let index = SymbolIndex::build(inputs, graph);
            symbol_findings(&index, b)
        }
        _ => Vec::new(),
    };
    let mut merged = merge_findings(per_file, symbol);
    merged.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    merged
}

/// Scans a set of files and applies the allowlist. `allow` and
/// `boundaries` are each the respective file's
/// `(workspace-relative path, contents)` when present; `graph` supplies
/// cross-crate call resolution (use [`CrateGraph::permissive`] for loose
/// file sets).
pub fn scan_files(
    files: &[(PathBuf, String)],
    allow: Option<(&str, &str)>,
    boundaries: Option<(&str, &str)>,
    graph: CrateGraph,
) -> Result<ScanReport, ScanError> {
    let parsed_boundaries = match boundaries {
        Some((path, text)) => {
            Some(Boundaries::parse(path, text).map_err(ScanError::BadBoundaries)?)
        }
        None => None,
    };
    // Fan the per-file work (read + tokenize + lint) over the worker
    // pool; the stand-in returns results in input order, so downstream
    // processing — and therefore the report — is order-deterministic.
    let scans: Vec<Result<FileScan, ScanError>> = files
        .par_iter()
        .map(|(abs, rel)| scan_one(abs, rel))
        .collect();
    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    let mut per_file = Vec::new();
    let mut inputs = Vec::new();
    for scan in scans {
        let s = scan?;
        per_file.extend(s.findings);
        sources.insert(s.rel.clone(), s.src);
        inputs.push((s.rel, s.crate_name, s.tokens));
    }
    let symbol = match &parsed_boundaries {
        Some(b) if !b.entries.is_empty() => {
            let index = SymbolIndex::build(inputs, graph);
            symbol_findings(&index, b)
        }
        _ => Vec::new(),
    };
    let findings = merge_findings(per_file, symbol);
    let (allow_path, allowlist) = match allow {
        Some((path, text)) => (
            path,
            Allowlist::parse(text).map_err(ScanError::BadAllowlist)?,
        ),
        None => ("analyzer.allow", Allowlist::default()),
    };
    let applied = allowlist.apply(findings, allow_path, |path, line| {
        sources
            .get(path)
            .zip((line as usize).checked_sub(1))
            .and_then(|(src, idx)| src.lines().nth(idx))
            .map(str::to_string)
    });
    let mut kept = applied.kept;
    kept.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    Ok(ScanReport {
        findings: kept,
        suppressed: applied.suppressed,
        files: files.len(),
    })
}

/// Scans the whole workspace rooted at `root`, honouring
/// `<root>/analyzer.allow` and `<root>/analyzer.boundaries` when they
/// exist (or explicit overrides), with cross-crate resolution over the
/// workspace `Cargo.toml` graph.
pub fn scan_workspace(
    root: &Path,
    allow_override: Option<&Path>,
    boundaries_override: Option<&Path>,
) -> Result<ScanReport, ScanError> {
    let files = workspace_files(root)?;
    let graph = CrateGraph::from_workspace(root);
    let read_rel = |p: &Path| -> Result<(String, String), ScanError> {
        let text = std::fs::read_to_string(p).map_err(|e| ScanError::Io(p.to_path_buf(), e))?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        Ok((rel, text))
    };
    let allow_path = match allow_override {
        Some(p) => Some(p.to_path_buf()),
        None => {
            let default = root.join("analyzer.allow");
            default.is_file().then_some(default)
        }
    };
    let boundaries_path = match boundaries_override {
        Some(p) => Some(p.to_path_buf()),
        None => {
            let default = root.join("analyzer.boundaries");
            default.is_file().then_some(default)
        }
    };
    let allow = allow_path.as_deref().map(&read_rel).transpose()?;
    let bounds = boundaries_path.as_deref().map(&read_rel).transpose()?;
    scan_files(
        &files,
        allow.as_ref().map(|(p, t)| (p.as_str(), t.as_str())),
        bounds.as_ref().map(|(p, t)| (p.as_str(), t.as_str())),
        graph,
    )
}

/// Locates the workspace root: the nearest ancestor of `start` holding
/// both a `Cargo.toml` and a `crates/` directory, falling back to the
/// analyzer crate's own grandparent (compiled-in) so `pidpiper-analyzer`
/// works from any cwd inside the repo.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    for dir in start.ancestors() {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir.to_path_buf();
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap_or(Path::new("."))
        .to_path_buf()
}

/// `true` when any finding remains that is not merely informational —
/// i.e. the gate should fail.
pub fn should_fail(report: &ScanReport) -> bool {
    !report.findings.is_empty()
}

/// Serializes a report as the analyzer's stable JSON schema (version 1):
/// `schema_version`, `files`, `suppressed`, `scan_ms`, per-rule `counts`
/// and the sorted `findings` array. CI archives and diffs this.
pub fn to_json(report: &ScanReport, scan_ms: u64) -> String {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for f in &report.findings {
        *counts.entry(f.rule.as_str()).or_insert(0) += 1;
    }
    let findings = report.findings.iter().map(|f| {
        json_object! {
            "path" => f.path.as_str(),
            "line" => f.line,
            "rule" => f.rule.as_str(),
            "message" => f.message.as_str(),
        }
    });
    let doc = json_object! {
        "schema_version" => 1_u64,
        "files" => report.files,
        "suppressed" => report.suppressed,
        "scan_ms" => scan_ms,
        "counts" => Json::object(counts.into_iter().map(|(rule, n)| (rule, Json::from(n)))),
        "findings" => Json::array(findings),
    };
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidpiper_math::json;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/math/src/lib.rs"),
            ("math".into(), true, LintProfile::Strict)
        );
        assert_eq!(
            classify("crates/math/src/float.rs"),
            ("math".into(), false, LintProfile::Strict)
        );
        assert_eq!(
            classify("crates/math/tests/props.rs"),
            ("math".into(), false, LintProfile::Relaxed)
        );
        assert_eq!(
            classify("crates/ml/examples/train.rs"),
            ("ml".into(), false, LintProfile::Relaxed)
        );
        assert_eq!(
            classify("crates/bench/src/harness.rs"),
            ("bench".into(), false, LintProfile::Driver)
        );
        assert_eq!(
            classify("src/lib.rs"),
            ("pid-piper".into(), true, LintProfile::Strict)
        );
        assert_eq!(
            classify("src/main.rs"),
            ("pid-piper".into(), false, LintProfile::Strict)
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            ("examples".into(), false, LintProfile::Driver)
        );
        assert_eq!(
            classify("tests/smoke.rs"),
            ("pid-piper".into(), false, LintProfile::Relaxed)
        );
    }

    #[test]
    fn unused_rule_variant_lint_guard() {
        // RuleId::parse round-trips every id the analyzer can emit.
        for id in [
            "DT01", "DT02", "DT03", "PF01", "PF02", "PF03", "PF04", "PF05", "FS01", "FS02",
            "DC01", "AL01", "TB01", "DT04", "DT05", "CC01", "CC02", "BM01",
        ] {
            let parsed = RuleId::parse(id).map(RuleId::as_str);
            assert_eq!(parsed, Some(id));
        }
    }

    #[test]
    fn dt04_subsumes_dt03_at_the_same_site() {
        let manifest = "det_root Trace::fingerprint -- fingerprint gate\n";
        let b = Boundaries::parse("analyzer.boundaries", manifest).expect("parses");
        let src = "\
//! Doc.
#![deny(missing_docs)]
/// T.
pub struct Trace;
impl Trace {
    /// F.
    pub fn fingerprint(&self) -> u64 { let m: HashMap<u8, u8> = HashMap::new(); 0 }
}
";
        let findings = analyze_sources(
            &[("crates/missions/src/lib.rs".to_string(), src.to_string())],
            Some(&b),
            CrateGraph::permissive(),
        );
        let ids: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        // Two HashMap mentions, both upgraded to DT04; no DT03 residue.
        assert_eq!(ids, vec!["DT04", "DT04"], "{findings:?}");
    }

    #[test]
    fn json_report_matches_the_golden_rendering() {
        // Captured from the hand-written template this writer replaced.
        let finding = |path: &str, line, rule, message: &str| Finding {
            path: path.into(),
            line,
            rule,
            message: message.into(),
        };
        let report = ScanReport {
            findings: vec![
                finding(
                    "crates/a/src/lib.rs",
                    3,
                    RuleId::Dt01WallClock,
                    "say \"no\" to\nwall clocks \\ tabs\there \u{1}",
                ),
                finding(
                    "crates/b/src/x.rs",
                    40,
                    RuleId::Pf02Expect,
                    "`.expect(...)` in library code",
                ),
                finding("crates/b/src/y.rs", 7, RuleId::Dt01WallClock, "plain"),
            ],
            suppressed: 2,
            files: 5,
        };
        let golden = include_str!("../tests/golden/report.json");
        assert_eq!(json::minify(&to_json(&report, 42)), json::minify(golden));
        let empty = ScanReport {
            findings: vec![],
            suppressed: 0,
            files: 118,
        };
        assert_eq!(
            json::minify(&to_json(&empty, 1234)),
            r#"{"schema_version":1,"files":118,"suppressed":0,"scan_ms":1234,"counts":{},"findings":[]}"#
        );
    }
}
