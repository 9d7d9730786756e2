//! The one JSON writer behind every `BENCH_*.json` report and the
//! analyzer's `--format json` output.
//!
//! A report builds a [`Json`] tree, usually with
//! [`crate::json_object!`], and renders it with [`Json::render`]. Each
//! float keeps the decimal count its report has always printed
//! ([`Json::fixed`]) or prints its shortest round-trip form
//! ([`Json::float`]). A non-finite float renders as `null`, because `NaN`
//! and `inf` are not JSON. Every string is escaped.
//! [`write_bench_report`] writes a rendered report to the workspace root
//! and mirrors it into `target/experiments/`.
//!
//! # Examples
//!
//! ```
//! use pidpiper_math::json::Json;
//! use pidpiper_math::json_object;
//!
//! let doc = json_object! {
//!     "bench" => "demo",
//!     "ns" => Json::fixed(12.345, 1),
//!     "points" => Json::array([1_usize, 16]),
//!     "error" => Json::fixed(f64::NAN, 3),
//! };
//! let want = "{\n  \"bench\": \"demo\",\n  \"ns\": 12.3,\n  \"points\": [1, 16],\n  \"error\": null\n}\n";
//! assert_eq!(doc.render(), want);
//! ```

use std::io;
use std::path::{Path, PathBuf};

/// Builds a [`Json::Obj`] from `"key" => value` pairs, in order. Each
/// value goes through `Json::from`, so counts, flags, strings, options
/// and nested [`Json`] values can be written directly.
#[macro_export]
macro_rules! json_object {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, wide enough for every `u64` and `i64`.
    Int(i128),
    /// A float printed with `Some(n)` decimals, or in its shortest
    /// round-trip form when `None`. Non-finite values print as `null`.
    Num(f64, Option<usize>),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything convertible to [`Json`].
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// A float printed with exactly `decimals` decimals.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Num(v, Some(decimals))
    }

    /// A float printed in its shortest round-trip form.
    pub fn float(v: f64) -> Json {
        Json::Num(v, None)
    }

    /// Renders the value with two-space indentation and a trailing
    /// newline. Empty containers and arrays of scalars stay on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(v, _) if !v.is_finite() => out.push_str("null"),
            Json::Num(v, Some(d)) => out.push_str(&format!("{v:.d$}")),
            Json::Num(v, None) => out.push_str(&v.to_string()),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.iter().all(scalar) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.write(out, depth);
                }
                out.push(']');
            }
            Json::Arr(items) => write_block(out, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                write_block(out, depth, "{}", fields.iter().map(|(k, v)| (Some(k), v)))
            }
        }
    }
}

/// Writes a multi-line array or object between the two `brackets`, one
/// entry per line.
fn write_block<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    entries: impl Iterator<Item = (Option<&'a String>, &'a Json)>,
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    for (i, (key, value)) in entries.enumerate() {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(k) = key {
            write_string(out, k);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push_str(close);
}

/// Writes `s` as a quoted JSON string literal.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(i: $t) -> Json {
                // Lossless: every unsigned type here is at most 64 bits.
                Json::Int(i as i128)
            }
        }
    )*};
}
from_unsigned!(u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Removes every whitespace character outside string literals, so two
/// renderings that differ only in layout compare equal.
pub fn minify(text: &str) -> String {
    let (mut in_string, mut escaped) = (false, false);
    text.chars()
        .filter(|&c| {
            let keep = in_string || !c.is_whitespace();
            match (in_string, escaped, c) {
                (true, true, _) => escaped = false,
                (true, false, '\\') => escaped = true,
                (_, false, '"') => in_string = !in_string,
                _ => {}
            }
            keep
        })
        .collect()
}

/// Report checks: fails on the first `(key, value)` that is not a
/// finite positive number.
///
/// # Errors
///
/// Names the offending key and value.
pub fn require_positive(values: &[(&str, f64)]) -> Result<(), String> {
    match values.iter().find(|(_, v)| !(v.is_finite() && *v > 0.0)) {
        Some((key, v)) => Err(format!("{key} is {v}, expected a positive number")),
        None => Ok(()),
    }
}

/// Report checks: fails on the first `(key, count)` that is zero.
///
/// # Errors
///
/// Names the offending key.
pub fn require_nonzero(counts: &[(&str, usize)]) -> Result<(), String> {
    match counts.iter().find(|(_, n)| *n == 0) {
        Some((key, _)) => Err(format!("{key} is 0")),
        None => Ok(()),
    }
}

/// The workspace root: every crate sits at `crates/<name>`, two levels
/// below it. Binaries run with their package directory as the working
/// directory, so relative paths would land inside the crate.
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .to_path_buf()
}

/// Writes `body` to `file_name` at the workspace root, then mirrors it
/// into `target/experiments/`.
///
/// # Errors
///
/// Returns the first I/O error: a report that did not reach the
/// workspace root must fail its run, not just print a warning.
pub fn write_bench_report(file_name: &str, body: &str) -> io::Result<()> {
    let root = workspace_root();
    std::fs::write(root.join(file_name), body)?;
    let mirror = root.join("target").join("experiments");
    std::fs::create_dir_all(&mirror)?;
    std::fs::write(mirror.join(file_name), body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let s = Json::from("say \"no\"\\ to\nwall\tclocks\r\u{1}\u{1f}é").render();
        assert_eq!(
            s,
            "\"say \\\"no\\\"\\\\ to\\nwall\\tclocks\\r\\u0001\\u001fé\"\n"
        );
        // Keys are escaped too.
        assert_eq!(
            Json::object([("a\"b", Json::Null)]).render(),
            "{\n  \"a\\\"b\": null\n}\n"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::fixed(v, 2).render(), "null\n");
            assert_eq!(Json::float(v).render(), "null\n");
        }
        let doc = Json::array([
            Json::fixed(1.25, 1),
            Json::float(f64::NAN),
            Json::float(0.95),
        ]);
        assert_eq!(doc.render(), "[1.2, null, 0.95]\n");
    }

    #[test]
    fn empty_containers_nesting_and_integers() {
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}\n");
        let doc = Json::object([
            (
                "n",
                Json::array([Json::from(u64::MAX), Json::Int(-7), Json::from(None::<u32>)]),
            ),
            (
                "rows",
                Json::Arr(vec![Json::object([
                    ("a", true.into()),
                    ("e", Json::Obj(vec![])),
                ])]),
            ),
        ]);
        let want = "{\n  \"n\": [18446744073709551615, -7, null],\n  \"rows\": [\n    {\n      \
                    \"a\": true,\n      \"e\": {}\n    }\n  ]\n}\n";
        assert_eq!(doc.render(), want);
    }

    #[test]
    fn minify_keeps_whitespace_inside_strings() {
        let text = "{ \"a b\" : [ 1 ,\n 2 ], \"q\\\" x\": \"\\\\ \" }";
        assert_eq!(minify(text), "{\"a b\":[1,2],\"q\\\" x\":\"\\\\ \"}");
    }

    #[test]
    fn workspace_root_holds_the_workspace_manifest() {
        let root = workspace_root();
        assert!(
            root.join("Cargo.toml").is_file() && root.join("crates").is_dir(),
            "{}",
            root.display()
        );
    }
}
