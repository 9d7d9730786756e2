//! The edits of the text-format mutation corpora: delete, duplicate or
//! truncate a line, or swap one token for 0, −1, NaN, ±inf, ±1e308 or an
//! integer too large for any dimension type. Shared by the model-text
//! corpus (`text_mutation.rs`) and the deployment-text corpus in
//! `pidpiper-core`.

use proptest::prelude::*;

/// The tokens a swap writes.
pub const TOKENS: [&str; 10] = [
    "0",
    "-1",
    "NaN",
    "inf",
    "-inf",
    "1e308",
    "-1e308",
    "18446744073709551616",
    "340282366920938463463374607431768211457",
    "99999999999999999999999999999999999999999999",
];

/// One edit: its kind, the line it hits, the token it swaps in and a
/// position inside the line (each taken modulo the actual sizes).
pub type Edit = (usize, usize, usize, usize);

/// One to four edits.
pub fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0usize..4, 0usize..64, 0usize..TOKENS.len(), 0usize..4096), 1..5)
}

/// Applies one edit to `lines`.
pub fn apply(lines: &mut Vec<String>, (kind, at, token, pos): Edit) {
    if lines.is_empty() {
        return;
    }
    let at = at % lines.len();
    match kind {
        0 => {
            lines.remove(at);
        }
        1 => {
            let line = lines[at].clone();
            lines.insert(at, line);
        }
        2 => {
            // The text is ASCII, so every byte index is a char boundary.
            let keep = pos % (lines[at].len() + 1);
            lines[at].truncate(keep);
        }
        _ => {
            let mut tokens: Vec<&str> = lines[at].split_whitespace().collect();
            if tokens.is_empty() {
                lines[at] = TOKENS[token].to_string();
            } else {
                let i = pos % tokens.len();
                tokens[i] = TOKENS[token];
                lines[at] = tokens.join(" ");
            }
        }
    }
}
