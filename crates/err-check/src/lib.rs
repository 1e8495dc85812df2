//! Concurrency static analysis for the workspace sources.
//!
//! The runtime's correctness claims rest on hand-rolled lock-free code
//! — the MPSC ingress ring, the Lamport SPSC egress ring, the credit
//! counters, the `closed+in_flight` drain gate, and the wake hand-off.
//! This crate enforces the hygiene rules
//! that keep those claims auditable (DESIGN.md §10):
//!
//! * **safety-comment** — every `unsafe` token carries a `// SAFETY:`
//!   justification within the preceding few lines.
//! * **ordering-comment** — every non-`Relaxed` atomic ordering carries
//!   a `// ordering:` comment naming its pairing site.
//! * **seqcst-scope** — `Ordering::SeqCst` is allowlisted per file (the
//!   drain-gate Dekker protocols) and an error anywhere else; the
//!   per-site justification is the mandatory `// ordering:` comment.
//! * **no-std-mutex** — `std::sync::Mutex` only in allowlisted modules
//!   (cold-path locks documented as such); never on a per-flit path.
//! * **stats-relaxed** — `stats.rs` modules are approximate-under-race
//!   by contract and may only use `Relaxed`.
//! * **try-emit-override** — every `impl Egress` must override
//!   `try_emit` explicitly (or ack with `// try-emit:`): the trait
//!   default delegates to the *blocking* `emit`, the PR 6 deadlock
//!   class — a wrapper such as the runtime's `OptionalSink` included:
//!   a sink has one contract, and `try_emit` never blocks.
//! * **ordering-pairing** — `[pair: label @ file]` clauses inside
//!   `// ordering:` comments form a cross-file graph; every clause
//!   must resolve to a scanned file holding a matching clause that
//!   points back, so a refactor cannot strand one side of an
//!   Acquire/Release pair. Mandatory in the fabric-era protocol files.
//! * **park-protocol** — in the files that park flows, every
//!   `park_flow` call names its unpark authority in a `// unpark:`
//!   comment (backticked identifiers must resolve to real code), and
//!   a direct `unpark_flow` needs the same justification — a
//!   credit-parked link's flows are released only by the buffered
//!   stage's `refill` (the stash-wedge class).
//! * **panic-boundary** — every spawned-thread closure wraps its body
//!   in `catch_unwind` or carries a `// panic-policy:` justification.
//! * **backstop** — in the threaded crates every `sleep_unless` /
//!   `idle_unless` / `idle_while_*` / `park_timeout` call says what
//!   its timer is for
//!   in a `// backstop:` comment: `covered by` named wakers (the
//!   timeout must then be the shared `BACKSTOP`), `polls` something
//!   nobody announces (it must not be), or `forwards` the caller's
//!   `timeout`. A short timer armed per sleep for an announced event
//!   was the largest line of the buffered-egress budget before PR 17.
//! * **doc-drift** — declarative needle rules keeping DESIGN.md
//!   §8–§14, README.md, and EXPERIMENTS.md naming the real protocol
//!   vocabulary (generalizes the PR 3/PR 4 drift tests).
//! * **doc-names** — the reverse direction: every backticked Rust path
//!   or file path in those docs resolves to code, a file, a ledger
//!   metric, a commit id or the glossary ([`lint_doc_names`]).
//!
//! The scanner is a deliberately small line lexer, not a full parser:
//! it masks string/char literals and comments (so `"unsafe"` in a
//! string does not count), tracks nested block comments and raw
//! strings, and skips `#[cfg(test)]` modules by brace counting. Rules
//! then run over the masked code with an N-line comment lookback; the
//! pairing graph and unpark-authority resolution run as a second,
//! cross-file pass over the whole scanned set ([`lint_files`]).
//!
//! The rule *tables* — allowlists, pass registry, protocol-file lists,
//! doc-drift needles — live in `rules.rs` (one declarative module), so
//! growing the workspace means editing data, not lexer code.
//!
//! `vendor/` is excluded: the vendored stand-ins (including the loom
//! checker itself) are the instrumentation layer, not product code.

#![warn(missing_docs)]

mod rules;

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub use rules::PASSES;
use rules::{
    BACKSTOP_CONST, BACKSTOP_TREES, CLAIM_FILES, DOC_FILE_EXTS, DOC_GLOSSARY, DOC_RULES,
    METRIC_CATALOG, MUTEX_FILES, NAMED_DOCS, PAIRED_FILES, SEQCST_FILES, TRAIT_IMPL_RULES,
    TREE_SKIP,
};

/// How many lines above an `unsafe`/ordering site a justifying comment
/// may sit (multi-line statements push the token below its comment).
const LOOKBACK: usize = 8;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line (0 for whole-document rules).
    pub line: usize,
    /// Rule identifier, e.g. `safety-comment`.
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// One source line after masking: `code` has comments and literal
/// contents blanked out; `comment` is the text of any `//` comment.
#[derive(Debug, Default)]
struct Line {
    code: String,
    comment: String,
}

/// Masks `text` line by line: string/char literal contents and comment
/// bodies become spaces in `code`; `//` comment text is captured
/// separately so the SAFETY/ordering rules can read it. Handles nested
/// block comments, raw strings, and multi-line strings.
fn scrub(text: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum S {
        Code,
        Block(u32),
        Str,
        RawStr(u32),
    }
    let mut state = S::Code;
    let mut out = Vec::new();
    for raw in text.lines() {
        let b: Vec<char> = raw.chars().collect();
        let mut code = String::with_capacity(b.len());
        let mut comment = String::new();
        let mut i = 0;
        while i < b.len() {
            match state {
                S::Block(depth) => {
                    if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        state = if depth == 1 {
                            S::Code
                        } else {
                            S::Block(depth - 1)
                        };
                        i += 2;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        state = S::Block(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                    code.push(' ');
                }
                S::Str => {
                    if b[i] == '\\' {
                        i += 2;
                        code.push(' ');
                    } else {
                        if b[i] == '"' {
                            state = S::Code;
                        }
                        code.push(' ');
                        i += 1;
                    }
                }
                S::RawStr(hashes) => {
                    if b[i] == '"'
                        && b[i + 1..]
                            .iter()
                            .take(hashes as usize)
                            .filter(|c| **c == '#')
                            .count()
                            == hashes as usize
                    {
                        state = S::Code;
                        i += 1 + hashes as usize;
                        code.push(' ');
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                S::Code => match b[i] {
                    '/' if b.get(i + 1) == Some(&'/') => {
                        comment = b[i..].iter().collect();
                        i = b.len();
                    }
                    '/' if b.get(i + 1) == Some(&'*') => {
                        state = S::Block(1);
                        code.push(' ');
                        i += 2;
                    }
                    '"' => {
                        state = S::Str;
                        code.push(' ');
                        i += 1;
                    }
                    'r' | 'b' if raw_string_at(&b, i).is_some() => {
                        let (quote, hashes) = raw_string_at(&b, i).expect("guard checked");
                        state = S::RawStr(hashes);
                        for _ in i..=quote {
                            code.push(' ');
                        }
                        i = quote + 1;
                    }
                    '\'' => {
                        // Char literal vs lifetime: a literal closes
                        // with a `'` right after one (possibly escaped)
                        // character; a lifetime never closes.
                        if b.get(i + 1) == Some(&'\\') {
                            let close = b[i + 2..].iter().position(|c| *c == '\'');
                            match close {
                                Some(off) => {
                                    for _ in 0..off + 3 {
                                        code.push(' ');
                                    }
                                    i += off + 3;
                                }
                                None => {
                                    code.push(' ');
                                    i += 1;
                                }
                            }
                        } else if b.get(i + 2) == Some(&'\'') {
                            code.push_str("   ");
                            i += 3;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    }
                    c => {
                        code.push(c);
                        i += 1;
                    }
                },
            }
        }
        out.push(Line { code, comment });
    }
    out
}

/// Detects a raw-string opener (`r"`, `r#"`, `br"`, …) at `i`:
/// returns the index of the opening quote and the hash count.
fn raw_string_at(b: &[char], i: usize) -> Option<(usize, u32)> {
    let mut j = i + 1;
    if b[i] == 'b' {
        if b.get(j) != Some(&'r') {
            return None;
        }
        j += 1;
    }
    let mut hashes = 0u32;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (b.get(j) == Some(&'"')).then_some((j, hashes))
}

/// Whether `code` contains `word` as a standalone token (not a
/// substring of a longer identifier).
fn has_token(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let c = bytes[at - 1] as char;
            !c.is_alphanumeric() && c != '_'
        };
        let end = at + word.len();
        let after_ok = end >= code.len() || {
            let c = bytes[end] as char;
            !c.is_alphanumeric() && c != '_'
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Marks the lines belonging to `#[cfg(test)]` items (by brace
/// counting from the attribute), so test code is exempt from the
/// production-hygiene rules.
fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = &lines[i].code;
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            // Skip until the attached item ends: at the first `;`
            // before any `{`, or at the brace that closes the item.
            let mut depth = 0usize;
            let mut entered = false;
            while i < lines.len() {
                mask[i] = true;
                for c in lines[i].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            entered = true;
                        }
                        '}' => depth = depth.saturating_sub(1),
                        ';' if !entered => {
                            entered = true;
                            depth = 0;
                        }
                        _ => {}
                    }
                }
                i += 1;
                if entered && depth == 0 {
                    break;
                }
            }
        } else {
            i += 1;
        }
    }
    mask
}

/// Whether any comment within the lookback window (ending at `line`,
/// inclusive) contains `needle`.
fn comment_nearby(lines: &[Line], line: usize, needle: &str) -> bool {
    let lo = line.saturating_sub(LOOKBACK);
    lines[lo..=line].iter().any(|l| l.comment.contains(needle))
}

/// Whether `code` opens an `impl <trait_name> for …` item (token
/// boundary on the trait name, so `LoggedEgress for` is not an
/// `Egress for`).
fn is_trait_impl(code: &str, trait_name: &str) -> bool {
    if !has_token(code, "impl") {
        return false;
    }
    let needle = format!("{trait_name} for ");
    code.match_indices(&needle).any(|(at, _)| {
        at == 0 || {
            let c = code.as_bytes()[at - 1] as char;
            !c.is_alphanumeric() && c != '_'
        }
    })
}

/// Whether a code line of the item block opening at (or shortly
/// after) `start` satisfies `found` — brace-counted from the first
/// `{`, so nested fn bodies stay inside the scanned span.
fn block_has(lines: &[Line], start: usize, found: impl Fn(&str) -> bool) -> bool {
    let mut depth = 0usize;
    let mut entered = false;
    for l in &lines[start..] {
        if found(&l.code) {
            return true;
        }
        for c in l.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if entered && depth == 0 {
            return false;
        }
    }
    false
}

/// Whether the `spawn(…)` call starting on `start` contains `needle`
/// as a token anywhere inside its argument span (paren-counted from
/// the spawn's opening parenthesis, so the whole closure body is
/// scanned however many lines it spans).
fn spawn_span_has_token(lines: &[Line], start: usize, needle: &str) -> bool {
    let mut depth = 0i64;
    let mut entered = false;
    for (j, l) in lines.iter().enumerate().skip(start) {
        let from = if j == start {
            l.code
                .find(".spawn(")
                .or_else(|| l.code.find("::spawn("))
                .unwrap_or(0)
        } else {
            0
        };
        let code = &l.code[from..];
        if has_token(code, needle) {
            return true;
        }
        for c in code.chars() {
            match c {
                '(' => {
                    depth += 1;
                    entered = true;
                }
                ')' => depth -= 1,
                _ => {}
            }
        }
        if entered && depth <= 0 {
            return false;
        }
    }
    false
}

/// Byte offsets in `code` just past the `(` of every *call* of a
/// sleeping function (`sleep_unless`; `idle_unless` / `idle_while_*`,
/// the idle path that ends in one; `park_timeout`) — not its
/// definition (`fn name(`) nor an import (no `(`).
fn sleep_calls(code: &str) -> Vec<usize> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for (open, _) in code.match_indices('(') {
        let head = &code[..open];
        let name_at = head.rfind(|c| !is_ident(c)).map_or(0, |at| {
            at + head[at..].chars().next().map_or(1, char::len_utf8)
        });
        let name = &head[name_at..];
        let sleeps = ["sleep_unless", "idle_unless", "park_timeout"].contains(&name)
            || name.starts_with("idle_while_");
        if sleeps && !head[..name_at].trim_end().ends_with("fn") {
            out.push(open + 1);
        }
    }
    out
}

/// The argument text of the call whose `(` ends just before byte
/// `from` of line `start` — paren-counted, over as many lines as the
/// call spans.
fn call_args(lines: &[Line], start: usize, from: usize) -> String {
    let mut depth = 1usize;
    let mut args = String::new();
    for (j, l) in lines.iter().enumerate().skip(start) {
        for c in l.code[if j == start { from } else { 0 }..].chars() {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                return args;
            }
            args.push(c);
        }
        args.push(' ');
    }
    args
}

/// The `// backstop:` comment that covers line `line`: the text after
/// the last such marker within the lookback window, continued over
/// the comment lines between it and the call.
fn backstop_comment(lines: &[Line], line: usize) -> Option<String> {
    let lo = line.saturating_sub(LOOKBACK);
    let at = (lo..=line)
        .rev()
        .find(|&i| lines[i].comment.contains("backstop:"))?;
    let first = &lines[at].comment;
    let mut text =
        first[first.find("backstop:").expect("just found") + "backstop:".len()..].to_owned();
    for l in &lines[at + 1..=line] {
        text.push(' ');
        text.push_str(l.comment.trim_start_matches('/'));
    }
    Some(text)
}

/// Parses every `[pair: label @ target]` clause out of one comment.
/// Returns `(label, target)` pairs plus whether a malformed clause
/// (no `@` or unterminated) was seen.
fn pair_clauses(comment: &str) -> (Vec<(String, String)>, bool) {
    let mut out = Vec::new();
    let mut malformed = false;
    let mut rest = comment;
    while let Some(p) = rest.find("[pair:") {
        let after = &rest[p + "[pair:".len()..];
        let Some(end) = after.find(']') else {
            malformed = true;
            break;
        };
        match after[..end].split_once('@') {
            Some((label, target)) if !label.trim().is_empty() && !target.trim().is_empty() => {
                out.push((label.trim().to_owned(), target.trim().to_owned()));
            }
            _ => malformed = true,
        }
        rest = &after[end + 1..];
    }
    (out, malformed)
}

/// Every `` `backticked` `` span in `text`, with the byte offset of
/// its opening backtick.
fn backticked(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut at = 0;
    text.split('`')
        .map(move |chunk| {
            let start = at;
            at += chunk.len() + 1;
            (start.saturating_sub(1), chunk)
        })
        .skip(1)
        .step_by(2)
}

/// The identifier `span` starts with, if it starts with one.
fn leading_ident(span: &str) -> Option<&str> {
    let end = span
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(span.len());
    let ident = &span[..end];
    (!ident.is_empty() && !ident.starts_with(|c: char| c.is_numeric())).then_some(ident)
}

/// Extracts the leading identifier of every `` `backticked` `` span in
/// a comment (`` `refill` `` → that name;
/// `` `park_flow(flow)` `` → `park_flow`).
fn backticked_idents(text: &str) -> Vec<String> {
    backticked(text)
        .filter_map(|(_, span)| leading_ident(span))
        .map(str::to_owned)
        .collect()
}

/// Runs every source rule over one file. `relpath` uses `/` separators
/// relative to the workspace root.
pub fn lint_source(relpath: &str, text: &str) -> Vec<Violation> {
    let lines = scrub(text);
    let in_test = test_mask(&lines);
    let is_stats = relpath.ends_with("src/stats.rs");
    let seqcst_ok = SEQCST_FILES.contains(&relpath);
    let mutex_ok = MUTEX_FILES.contains(&relpath);
    let paired = PAIRED_FILES.contains(&relpath);
    let claim_file = CLAIM_FILES.contains(&relpath);
    let sleeps_audited = BACKSTOP_TREES.iter().any(|t| relpath.starts_with(t));
    let mut v = Vec::new();
    let mut push = |line: usize, rule: &'static str, msg: String| {
        v.push(Violation {
            file: relpath.to_owned(),
            line: line + 1,
            rule,
            msg,
        });
    };
    for (i, l) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if has_token(&l.code, "unsafe") && !comment_nearby(&lines, i, "SAFETY:") {
            push(
                i,
                "safety-comment",
                "`unsafe` without a `// SAFETY:` justification in the preceding lines".into(),
            );
        }
        let non_relaxed = [
            "Ordering::Acquire",
            "Ordering::Release",
            "Ordering::AcqRel",
            "Ordering::SeqCst",
        ]
        .iter()
        .any(|o| l.code.contains(o));
        if non_relaxed {
            if !comment_nearby(&lines, i, "ordering:") {
                push(
                    i,
                    "ordering-comment",
                    "non-Relaxed atomic ordering without a `// ordering:` comment naming its pairing site"
                        .into(),
                );
            }
            if paired && !comment_nearby(&lines, i, "[pair:") {
                push(
                    i,
                    "ordering-pairing",
                    "non-Relaxed site in a fabric-era protocol file without a machine-checkable \
                     `[pair: label @ file]` clause (use `@ self` for a same-file counterpart)"
                        .into(),
                );
            }
            if is_stats {
                push(
                    i,
                    "stats-relaxed",
                    "stats modules are approximate-under-race by contract and may only use `Relaxed`"
                        .into(),
                );
            }
        }
        if l.code.contains("Ordering::SeqCst") && !seqcst_ok {
            push(
                i,
                "seqcst-scope",
                format!(
                    "`SeqCst` outside the Dekker allowlist ({}); justify with a Dekker argument and allowlist the file, or downgrade",
                    SEQCST_FILES.join(", ")
                ),
            );
        }
        if has_token(&l.code, "Mutex") && !mutex_ok {
            push(
                i,
                "no-std-mutex",
                "`Mutex` outside the documented cold-path allowlist; use the lock-free cores or allowlist with a rationale"
                    .into(),
            );
        }
        for (trait_name, method, ack) in TRAIT_IMPL_RULES {
            if is_trait_impl(&l.code, trait_name)
                && !block_has(&lines, i, |code| has_token(code, method))
                && !comment_nearby(&lines, i, ack)
            {
                push(
                    i,
                    "try-emit-override",
                    format!(
                        "`impl {trait_name}` without an explicit `{method}` override: the trait \
                         default delegates to the blocking `emit` (the PR 6 flusher-deadlock \
                         class); override it, or ack inheriting the default with a `// {ack}` \
                         comment"
                    ),
                );
            }
        }
        if claim_file {
            if has_token(&l.code, "park_flow") && !comment_nearby(&lines, i, "unpark:") {
                push(
                    i,
                    "park-protocol",
                    "`park_flow` call without a `// unpark:` comment naming (in backticks) the \
                     authority that will unpark this flow"
                        .into(),
                );
            }
            if has_token(&l.code, "unpark_flow") && !comment_nearby(&lines, i, "unpark:") {
                push(
                    i,
                    "park-protocol",
                    "direct `unpark_flow` call in a claim file: a credit-parked link's flows are \
                     released only by the buffered stage's `refill`, with the credit it took (the \
                     stash-wedge class); a legitimate authority justifies itself with a \
                     `// unpark:` comment"
                        .into(),
                );
            }
        }
        let sleep_sites = if sleeps_audited {
            sleep_calls(&l.code)
        } else {
            Vec::new()
        };
        for from in sleep_sites {
            let timeout_is = |word: &str| has_token(&call_args(&lines, i, from), word);
            let verdict = backstop_comment(&lines, i);
            let complaint = match verdict.as_deref().map(str::trim_start) {
                None => Some(
                    "sleep without a `// backstop:` comment saying what its timer is for: \
                     `covered by` the named wakers, `polls` what nobody announces, or \
                     `forwards` the caller's `timeout`",
                ),
                Some(t) if t.starts_with("covered by") => (!timeout_is(BACKSTOP_CONST)).then_some(
                    "a covered sleep keeps its timer only as a backstop: pass the shared \
                     `BACKSTOP`, not a timeout a scheduler tick is longer than",
                ),
                Some(t) if t.starts_with("polls") => timeout_is(BACKSTOP_CONST).then_some(
                    "a sleep that polls for what nobody announces wakes by its timer alone: \
                     `BACKSTOP` would be its latency",
                ),
                Some(t) if t.starts_with("forwards") => (!timeout_is("timeout")).then_some(
                    "`// backstop: forwards` is for a call that passes on its own `timeout` \
                     parameter; this one does not",
                ),
                Some(_) => Some(
                    "`// backstop:` must say `covered by <wakers>`, `polls <what>` or `forwards`",
                ),
            };
            if let Some(msg) = complaint {
                push(i, "backstop", msg.into());
            }
        }
        if (l.code.contains(".spawn(") || l.code.contains("::spawn("))
            && !spawn_span_has_token(&lines, i, "catch_unwind")
            && !comment_nearby(&lines, i, "panic-policy:")
        {
            push(
                i,
                "panic-boundary",
                "spawned-thread closure without a `catch_unwind` boundary; wrap the body, or \
                 state the unwind contract in a `// panic-policy:` comment"
                    .into(),
            );
        }
    }
    v
}

/// The cross-file pass: resolves the `[pair:]` graph and the
/// `// unpark:` authorities over the whole scanned set. `files` holds
/// `(workspace-relative path, source text)` pairs.
fn lint_cross(files: &[(String, String)]) -> Vec<Violation> {
    let mut v = Vec::new();
    // Scrub once per file; keep the flattened code for token lookups.
    let scrubbed: Vec<(usize, Vec<Line>)> = files
        .iter()
        .enumerate()
        .map(|(fi, (_, text))| (fi, scrub(text)))
        .collect();
    let mut code = NameIndex::default();
    for (_, lines) in &scrubbed {
        code.add_code(lines);
    }
    let resolves = |ident: &str| code.names.contains(ident);
    let known_file = |rel: &str| files.iter().any(|(f, _)| f == rel);

    // Every pairing clause, graph-wide: (file idx, line, label, target).
    struct Clause {
        file: usize,
        line: usize,
        label: String,
        target: String,
    }
    let mut clauses: Vec<Clause> = Vec::new();
    for (fi, lines) in &scrubbed {
        // The linter's own sources document the clause grammar in
        // prose (`[pair: label @ file]` examples); they hold no
        // atomics and are not protocol annotations.
        if files[*fi].0.starts_with("crates/err-check/") {
            continue;
        }
        for (i, l) in lines.iter().enumerate() {
            if l.comment.is_empty() {
                continue;
            }
            let (found, malformed) = pair_clauses(&l.comment);
            if malformed {
                v.push(Violation {
                    file: files[*fi].0.clone(),
                    line: i + 1,
                    rule: "ordering-pairing",
                    msg: "malformed pairing clause; expected `[pair: label @ file]` (target \
                          `self` for a same-file counterpart)"
                        .into(),
                });
            }
            for (label, target) in found {
                let target = if target == "self" {
                    files[*fi].0.clone()
                } else {
                    target
                };
                clauses.push(Clause {
                    file: *fi,
                    line: i + 1,
                    label,
                    target,
                });
            }
        }
    }
    for c in &clauses {
        if !known_file(&c.target) {
            v.push(Violation {
                file: files[c.file].0.clone(),
                line: c.line,
                rule: "ordering-pairing",
                msg: format!(
                    "pairing `{}` targets `{}`, which is not a scanned source file — the \
                     counterpart moved or the path is stale",
                    c.label, c.target
                ),
            });
            continue;
        }
        let this_file = &files[c.file].0;
        let paired_back = clauses.iter().any(|d| {
            d.label == c.label
                && files[d.file].0 == c.target
                && d.target == *this_file
                && (d.file != c.file || d.line != c.line)
        });
        if !paired_back {
            v.push(Violation {
                file: this_file.clone(),
                line: c.line,
                rule: "ordering-pairing",
                msg: format!(
                    "one-sided pairing: `{}` claims its counterpart lives in `{}`, but that file \
                     has no `[pair: {} @ …]` clause pointing back here — half the \
                     Acquire/Release pair has been stranded",
                    c.label, c.target, c.label
                ),
            });
        }
    }

    // Covered sleeps: the wakers a `// backstop: covered by` comment
    // names must resolve to real code — a renamed wake is no cover.
    for (fi, lines) in &scrubbed {
        if !BACKSTOP_TREES.iter().any(|t| files[*fi].0.starts_with(t)) {
            continue;
        }
        for i in 0..lines.len() {
            if !lines[i].comment.contains("backstop:") {
                continue;
            }
            // The comment's own lines only: up to the first code line.
            let end = (i..lines.len())
                .find(|&j| !lines[j].code.trim().is_empty())
                .unwrap_or(lines.len() - 1);
            let Some(text) = backstop_comment(lines, end) else {
                continue;
            };
            if !text.trim_start().starts_with("covered by") {
                continue;
            }
            let idents = backticked_idents(&text);
            let unresolved = idents.iter().find(|ident| !resolves(ident));
            if idents.is_empty() || unresolved.is_some() {
                v.push(Violation {
                    file: files[*fi].0.clone(),
                    line: i + 1,
                    rule: "backstop",
                    msg: match unresolved {
                        Some(ident) => format!(
                            "`// backstop: covered by` names `{ident}`, which resolves to nothing \
                             in the scanned sources — the waker was renamed or removed"
                        ),
                        None => "`// backstop: covered by` names no backticked waker".into(),
                    },
                });
            }
        }
    }

    // Unpark authorities: every backticked name in a claim-file
    // `// unpark:` comment must resolve to real code somewhere in the
    // scanned set (a renamed sweep or helper invalidates the comment).
    for (fi, lines) in &scrubbed {
        if !CLAIM_FILES.contains(&files[*fi].0.as_str()) {
            continue;
        }
        for (i, l) in lines.iter().enumerate() {
            let Some(at) = l.comment.find("unpark:") else {
                continue;
            };
            let after = &l.comment[at + "unpark:".len()..];
            let idents = backticked_idents(after);
            if idents.is_empty() {
                v.push(Violation {
                    file: files[*fi].0.clone(),
                    line: i + 1,
                    rule: "park-protocol",
                    msg: "`// unpark:` comment names no backticked authority; name the function \
                          or sweep that will unpark the flow"
                        .into(),
                });
                continue;
            }
            for ident in idents {
                if !resolves(&ident) {
                    v.push(Violation {
                        file: files[*fi].0.clone(),
                        line: i + 1,
                        rule: "park-protocol",
                        msg: format!(
                            "`// unpark:` names `{ident}`, which resolves to nothing in the \
                             scanned sources — the authority was renamed or removed"
                        ),
                    });
                }
            }
        }
    }
    v
}

/// Runs the per-file rules over every file plus the cross-file passes
/// (pairing graph, unpark-authority resolution). This is the
/// source-side entry point `lint_workspace` builds on; tests feed it
/// miniature in-memory workspaces.
pub fn lint_files(files: &[(String, String)]) -> Vec<Violation> {
    let mut v = Vec::new();
    for (rel, text) in files {
        v.extend(lint_source(rel, text));
    }
    v.extend(lint_cross(files));
    v
}

/// Applies the declarative doc-drift rules against the docs under `root`.
pub fn check_docs(root: &Path) -> Vec<Violation> {
    let mut v = Vec::new();
    for rule in DOC_RULES {
        let text = match std::fs::read_to_string(root.join(rule.doc)) {
            Ok(t) => t,
            Err(e) => {
                v.push(Violation {
                    file: rule.doc.into(),
                    line: 0,
                    rule: "doc-drift",
                    msg: format!("unreadable: {e}"),
                });
                continue;
            }
        };
        let scope = match rule.section {
            None => text.as_str(),
            Some(heading) => {
                let Some(start) = text.find(&format!("\n{heading}")) else {
                    v.push(Violation {
                        file: rule.doc.into(),
                        line: 0,
                        rule: "doc-drift",
                        msg: format!("missing section `{heading}`"),
                    });
                    continue;
                };
                let rest = &text[start + 1..];
                match rest[heading.len()..].find("\n## ") {
                    Some(end) => &rest[..heading.len() + end],
                    None => rest,
                }
            }
        };
        // Case-insensitive needle match: docs may capitalize prose
        // ("Mutant kill matrix") differently from identifiers.
        let lower = scope.to_lowercase();
        for needle in rule.needles {
            if !lower.contains(&needle.to_lowercase()) {
                let at = rule
                    .section
                    .map(|s| format!(" section `{s}`"))
                    .unwrap_or_default();
                v.push(Violation {
                    file: rule.doc.into(),
                    line: 0,
                    rule: "doc-drift",
                    msg: format!("{}{at} no longer mentions `{needle}`", rule.doc),
                });
            }
        }
    }
    v
}

/// What a backticked name in a doc may resolve to (the `doc-names`
/// pass): a token of non-comment Rust code, a file of the tree (by
/// path, name or stem), or a name in the ledger's metric catalogue.
#[derive(Default)]
pub struct NameIndex {
    names: HashSet<String>,
    files: Vec<String>,
}

impl NameIndex {
    /// Indexes `sources` — `(relpath, text)` of every Rust file — and
    /// `tree`, the relpath of every file.
    pub fn new(sources: &[(String, String)], tree: &[String]) -> Self {
        let mut index = Self {
            names: HashSet::new(),
            files: tree.to_vec(),
        };
        for (rel, text) in sources {
            index.add_code(&scrub(text));
            if rel == METRIC_CATALOG {
                // Metric and workload names are string literals there;
                // a doc cites a whole name or one dotted part of it.
                for lit in text.split('"').skip(1).step_by(2) {
                    if !lit.is_empty() && !lit.contains(char::is_whitespace) {
                        index.names.extend(lit.split('.').map(str::to_owned));
                    }
                }
            }
        }
        for f in tree {
            let file = f.rsplit('/').next().unwrap_or(f);
            index.names.insert(file.to_owned());
            index
                .names
                .insert(file.split('.').next().unwrap_or(file).to_owned());
        }
        index
    }

    /// Adds every identifier token of scrubbed code.
    fn add_code(&mut self, lines: &[Line]) {
        let is_ident = |c: char| c.is_alphanumeric() || c == '_';
        for l in lines {
            self.names.extend(
                l.code
                    .split(|c: char| !is_ident(c))
                    .filter(|w| !w.is_empty())
                    .map(str::to_owned),
            );
        }
    }

    fn has_name(&self, name: &str) -> bool {
        if let Some(prefix) = name.strip_suffix('*') {
            return self.names.iter().any(|n| n.starts_with(prefix));
        }
        self.names.contains(name)
            || (name.len() >= 7 && name.chars().all(|c| c.is_ascii_hexdigit()))
            || DOC_GLOSSARY.iter().any(|(g, _)| *g == name)
    }

    /// The first segment of the Rust path `path` that names nothing.
    fn unresolved<'p>(&self, path: &'p str) -> Option<&'p str> {
        path.split("::").find(|seg| !self.has_name(seg))
    }

    fn has_file(&self, path: &str) -> bool {
        let path = path.trim_start_matches("./").trim_start_matches("../");
        self.files
            .iter()
            .any(|f| f == path || f.ends_with(&format!("/{path}")))
    }
}

/// The Rust path a backticked span names (`Fabric::drain_within(..)` →
/// `Fabric::drain_within`), if the span is shaped like one. A trailing
/// `*` (`idle_while_*`) names every item with that prefix.
fn doc_name(span: &str) -> Option<&str> {
    let end = span
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(span.len());
    let end = end + usize::from(span[end..].starts_with('*'));
    let (path, rest) = span.split_at(end);
    let shaped = path
        .split("::")
        .all(|seg| leading_ident(seg) == Some(seg.trim_end_matches('*')))
        && (rest.is_empty() || rest.starts_with(['(', '<', '!']));
    shaped.then_some(path)
}

/// The file a backticked span names (`lib.rs:117` → `lib.rs`), if the
/// span is shaped like a file path.
fn doc_file(span: &str) -> Option<&str> {
    let path = span.split(':').next()?;
    let (_, ext) = path.rsplit_once('.')?;
    let shaped = DOC_FILE_EXTS.contains(&ext)
        && path
            .chars()
            .all(|c| c.is_alphanumeric() || "_-./".contains(c));
    shaped.then_some(path)
}

/// Whether `line` names a PR (`PR 14`, `PRs 42–44`): the one mark that
/// exempts a historical name.
fn names_a_pr(line: &str) -> bool {
    line.match_indices("PR").any(|(at, _)| {
        let rest = line[at + 2..].trim_start_matches('s').trim_start();
        rest.starts_with(|c: char| c.is_ascii_digit())
    })
}

/// The `doc-names` pass: every backticked span shaped like a Rust path
/// or a file path in `docs` (`(relpath, markdown)` pairs) must resolve
/// in `index`, unless its line names a PR. Fenced code blocks are
/// commands and output, not names.
pub fn lint_doc_names(docs: &[(String, String)], index: &NameIndex) -> Vec<Violation> {
    let mut v = Vec::new();
    for (doc, text) in docs {
        let mut fenced = false;
        let prose: Vec<&str> = text
            .lines()
            .map(|l| {
                let fence = l.trim_start().starts_with("```");
                fenced ^= fence;
                if fenced || fence {
                    ""
                } else {
                    l
                }
            })
            .collect();
        let joined = prose.join("\n");
        for (at, span) in backticked(&joined) {
            let line = joined[..at].matches('\n').count();
            let unresolved = match (doc_file(span), doc_name(span)) {
                // `tests/fence.rs::a_test` names the file and the item in it.
                (Some(file), _) if !index.has_file(file) => Some(file),
                (Some(_), _) => span
                    .split_once("::")
                    .and_then(|(_, item)| doc_name(item))
                    .and_then(|item| index.unresolved(item)),
                (None, Some(path)) => index.unresolved(path),
                (None, None) => None,
            };
            if let Some(name) = unresolved.filter(|_| !names_a_pr(prose[line])) {
                v.push(Violation {
                    file: doc.clone(),
                    line: line + 1,
                    rule: "doc-names",
                    msg: format!(
                        "`{name}` names nothing in the code, the tree or the metric catalogue; \
                         fix the name, or put on this line the PR it belonged to"
                    ),
                });
            }
        }
    }
    v
}

/// Every file under `root` but what `TREE_SKIP` names, as sorted
/// `/`-separated relpaths.
fn tree_files(root: &Path) -> std::io::Result<Vec<String>> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let name = rel.rsplit('/').next().unwrap_or(&rel);
            if TREE_SKIP.contains(&name) || TREE_SKIP.contains(&rel.as_str()) {
                continue;
            }
            if path.is_dir() {
                walk(root, &path, out)?;
            } else {
                out.push(rel);
            }
        }
        Ok(())
    }
    let mut tree = Vec::new();
    walk(root, root, &mut tree)?;
    tree.sort();
    Ok(tree)
}

/// Lints the workspace under `root`: the source rules over `src/` and
/// every `crates/*/src` tree (per-file rules plus the cross-file
/// pairing/unpark passes), the doc-drift rules, and the `doc-names`
/// pass over the docs `NAMED_DOCS` lists, against every Rust file and
/// file of the tree. `vendor/`, `target/`, and test trees are out of
/// the source rules' scope by construction. Returns all violations,
/// sorted by file and line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let tree = tree_files(root)?;
    let mut sources = Vec::new();
    for rel in tree.iter().filter(|f| f.ends_with(".rs")) {
        sources.push((rel.clone(), std::fs::read_to_string(root.join(rel))?));
    }
    let linted: Vec<(String, String)> = sources
        .iter()
        .filter(|(rel, _)| {
            rel.starts_with("src/")
                || (rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src"))
        })
        .cloned()
        .collect();
    let mut violations = lint_files(&linted);
    violations.extend(check_docs(root));
    let mut docs = Vec::new();
    for doc in NAMED_DOCS {
        docs.push((doc.to_string(), std::fs::read_to_string(root.join(doc))?));
    }
    violations.extend(lint_doc_names(&docs, &NameIndex::new(&sources, &tree)));
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

/// The workspace root, resolved at compile time (two levels above this
/// crate's manifest), so the binary works from any cwd.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() {\n    unsafe { g() }\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/x/src/a.rs", bad)),
            ["safety-comment"]
        );
        let good = "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g() }\n}\n";
        assert!(lint_source("crates/x/src/a.rs", good).is_empty());
    }

    #[test]
    fn non_relaxed_requires_ordering_comment() {
        let bad = "fn f(a: &AtomicU64) {\n    a.load(Ordering::Acquire);\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/x/src/a.rs", bad)),
            ["ordering-comment"]
        );
        let good =
            "fn f(a: &AtomicU64) {\n    // ordering: Acquire pairs with the Release store in g.\n    a.load(Ordering::Acquire);\n}\n";
        assert!(lint_source("crates/x/src/a.rs", good).is_empty());
        let relaxed = "fn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/x/src/a.rs", relaxed).is_empty());
    }

    #[test]
    fn seqcst_is_scoped_to_the_drain_allowlist() {
        let src = "fn f(a: &AtomicU64) {\n    // ordering: SeqCst Dekker with g.\n    a.load(Ordering::SeqCst);\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/x/src/a.rs", src)),
            ["seqcst-scope"]
        );
        assert!(lint_source("crates/err-runtime/src/gate.rs", src).is_empty());
    }

    #[test]
    fn mutex_is_scoped_to_the_cold_path_allowlist() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(
            rules_of(&lint_source("crates/x/src/a.rs", src)),
            ["no-std-mutex"]
        );
        assert!(lint_source("crates/err-egress/src/link.rs", src).is_empty());
        assert_eq!(
            rules_of(&lint_source("crates/err-runtime/src/fault.rs", src)),
            ["no-std-mutex"]
        );
    }

    #[test]
    fn stats_modules_must_stay_relaxed() {
        let src = "fn f(a: &AtomicU64) {\n    // ordering: Acquire pairs with merge.\n    a.load(Ordering::Acquire);\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/err-runtime/src/stats.rs", src)),
            ["stats-relaxed"]
        );
        let relaxed = "fn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/err-runtime/src/stats.rs", relaxed).is_empty());
    }

    #[test]
    fn literals_and_comments_do_not_trip_rules() {
        let src = concat!(
            "fn f() {\n",
            "    let s = \"unsafe Ordering::SeqCst Mutex\";\n",
            "    let c = 'u';\n",
            "    let r = r#\"unsafe { Mutex }\"#;\n",
            "    /* unsafe Mutex Ordering::Acquire */\n",
            "}\n",
            "// prose about unsafe Mutex blocks is fine\n",
        );
        assert!(lint_source("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn multi_line_strings_stay_masked() {
        let src = "fn f() {\n    let s = \"line one\n    unsafe Mutex line two\";\n}\n";
        assert!(lint_source("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = concat!(
            "fn prod() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use std::sync::Mutex;\n",
            "    fn t() {\n",
            "        unsafe { core::hint::unreachable_unchecked() }\n",
            "    }\n",
            "}\n",
        );
        assert!(lint_source("crates/x/src/a.rs", src).is_empty());
        let outside = "use std::sync::Mutex;\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(
            rules_of(&lint_source("crates/x/src/a.rs", outside)),
            ["no-std-mutex"]
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // If `'a` were treated as an opening char literal the rest of
        // the line would be masked and the violation missed.
        let src = "fn f<'a>(x: &'a AtomicU64) {\n    x.load(Ordering::Acquire);\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/x/src/a.rs", src)),
            ["ordering-comment"]
        );
    }

    #[test]
    fn lookback_window_is_bounded() {
        let mut src = String::from("// SAFETY: too far away.\n");
        for _ in 0..LOOKBACK + 1 {
            src.push_str("fn pad() {}\n");
        }
        src.push_str("fn f() {\n    unsafe { g() }\n}\n");
        assert_eq!(
            rules_of(&lint_source("crates/x/src/a.rs", &src)),
            ["safety-comment"]
        );
    }

    #[test]
    fn token_matching_requires_word_boundaries() {
        let src = "fn f(unsafety: u32, my_mutex_count: MutexCount) {}\n";
        // `unsafety` and `MutexCount` are distinct identifiers, not the
        // `unsafe` / `Mutex` tokens.
        assert!(lint_source("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn egress_impl_requires_try_emit_override() {
        let bad = concat!(
            "impl Egress for MySink {\n",
            "    fn emit(&mut self, shard: usize, flit: &ServedFlit) {}\n",
            "}\n",
        );
        assert_eq!(
            rules_of(&lint_source("crates/x/src/a.rs", bad)),
            ["try-emit-override"]
        );
        let overridden = concat!(
            "impl Egress for MySink {\n",
            "    fn emit(&mut self, shard: usize, flit: &ServedFlit) {}\n",
            "    fn try_emit(&mut self, shard: usize, flit: &ServedFlit) -> bool {\n",
            "        true\n",
            "    }\n",
            "}\n",
        );
        assert!(lint_source("crates/x/src/a.rs", overridden).is_empty());
        let acked = concat!(
            "// try-emit: this sink never blocks, so inheriting the\n",
            "// default's emit delegation is safe.\n",
            "impl Egress for MySink {\n",
            "    fn emit(&mut self, shard: usize, flit: &ServedFlit) {}\n",
            "}\n",
        );
        assert!(lint_source("crates/x/src/a.rs", acked).is_empty());
    }

    #[test]
    fn paired_files_require_machine_checkable_clauses() {
        let free_text = concat!(
            "fn f(a: &AtomicU64) {\n",
            "    // ordering: Acquire pairs with the publish in g.\n",
            "    a.load(Ordering::Acquire);\n",
            "}\n",
        );
        // Outside the protocol files a free-text comment is enough...
        assert!(lint_source("crates/x/src/a.rs", free_text).is_empty());
        // ...inside them the clause is mandatory.
        assert_eq!(
            rules_of(&lint_source("crates/err-egress/src/flusher.rs", free_text)),
            ["ordering-pairing"]
        );
        let claused = concat!(
            "fn f(a: &AtomicU64) {\n",
            "    // ordering: Acquire pairs with the publish in g.\n",
            "    // [pair: watermark @ self]\n",
            "    a.load(Ordering::Acquire);\n",
            "}\n",
        );
        assert!(lint_source("crates/err-egress/src/flusher.rs", claused).is_empty());
    }

    #[test]
    fn pairing_graph_resolves_both_sides() {
        let a = (
            "crates/x/src/a.rs".to_owned(),
            concat!(
                "fn f(x: &AtomicU64) {\n",
                "    // ordering: Release publishes the state g joins.\n",
                "    // [pair: x-flag @ crates/x/src/b.rs]\n",
                "    x.store(1, Ordering::Release);\n",
                "}\n",
            )
            .to_owned(),
        );
        let b_ok = (
            "crates/x/src/b.rs".to_owned(),
            concat!(
                "fn g(x: &AtomicU64) {\n",
                "    // ordering: Acquire joins f's publish.\n",
                "    // [pair: x-flag @ crates/x/src/a.rs]\n",
                "    x.load(Ordering::Acquire);\n",
                "}\n",
            )
            .to_owned(),
        );
        assert!(lint_files(&[a.clone(), b_ok]).is_empty());
        // Counterpart clause gone: the pairing is one-sided.
        let b_bare = ("crates/x/src/b.rs".to_owned(), "fn g() {}\n".to_owned());
        assert_eq!(
            rules_of(&lint_files(&[a.clone(), b_bare])),
            ["ordering-pairing"]
        );
        // Target file not in the scanned set: the path went stale.
        assert_eq!(rules_of(&lint_files(&[a])), ["ordering-pairing"]);
    }

    #[test]
    fn self_pairs_need_a_counterpart_clause() {
        let one_sided = (
            "crates/x/src/a.rs".to_owned(),
            "// ordering: Release half of the loop. [pair: loop @ self]\n".to_owned(),
        );
        assert_eq!(rules_of(&lint_files(&[one_sided])), ["ordering-pairing"]);
        let both = (
            "crates/x/src/a.rs".to_owned(),
            concat!(
                "// ordering: Release half of the loop. [pair: loop @ self]\n",
                "// ordering: Acquire half of the loop. [pair: loop @ self]\n",
            )
            .to_owned(),
        );
        assert!(lint_files(&[both]).is_empty());
    }

    #[test]
    fn malformed_pair_clauses_are_flagged() {
        for bad in ["// [pair: no-target]\n", "// [pair: unterminated\n"] {
            let file = ("crates/x/src/a.rs".to_owned(), bad.to_owned());
            let v = lint_files(&[file]);
            assert_eq!(rules_of(&v), ["ordering-pairing"], "case: {bad:?}");
            assert!(v[0].msg.contains("malformed"), "case: {bad:?}");
        }
    }

    #[test]
    fn park_calls_need_an_unpark_comment_in_claim_files() {
        let bad = "fn f(s: &mut S) {\n    s.sched.park_flow(flow);\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/err-runtime/src/shard.rs", bad)),
            ["park-protocol"]
        );
        // Outside the claim files the pass does not run.
        assert!(lint_source("crates/x/src/a.rs", bad).is_empty());
        let direct = "fn f(s: &mut S) {\n    s.sched.unpark_flow(flow);\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/err-runtime/src/shard.rs", direct)),
            ["park-protocol"]
        );
    }

    #[test]
    fn unpark_authorities_must_resolve() {
        let live = (
            "crates/err-runtime/src/shard.rs".to_owned(),
            concat!(
                "fn sweep_links() {}\n",
                "fn f(s: &mut S) {\n",
                "    // unpark: the `sweep_links` pass at the loop top.\n",
                "    s.sched.park_flow(flow);\n",
                "}\n",
            )
            .to_owned(),
        );
        assert!(lint_files(&[live]).is_empty());
        let renamed = (
            "crates/err-runtime/src/shard.rs".to_owned(),
            concat!(
                "fn f(s: &mut S) {\n",
                "    // unpark: the `ghost_sweep` pass at the loop top.\n",
                "    s.sched.park_flow(flow);\n",
                "}\n",
            )
            .to_owned(),
        );
        let v = lint_files(&[renamed]);
        assert_eq!(rules_of(&v), ["park-protocol"]);
        assert!(v[0].msg.contains("ghost_sweep"));
        let nameless = (
            "crates/err-runtime/src/shard.rs".to_owned(),
            concat!(
                "fn f(s: &mut S) {\n",
                "    // unpark: somebody, eventually.\n",
                "    s.sched.park_flow(flow);\n",
                "}\n",
            )
            .to_owned(),
        );
        assert_eq!(rules_of(&lint_files(&[nameless])), ["park-protocol"]);
    }

    #[test]
    fn spawns_need_a_panic_boundary() {
        let bad = concat!(
            "fn f() {\n",
            "    std::thread::spawn(move || {\n",
            "        work();\n",
            "    });\n",
            "}\n",
        );
        assert_eq!(
            rules_of(&lint_source("crates/x/src/a.rs", bad)),
            ["panic-boundary"]
        );
        let caught = concat!(
            "fn f() {\n",
            "    std::thread::spawn(move || {\n",
            "        let _ = std::panic::catch_unwind(|| work());\n",
            "    });\n",
            "}\n",
        );
        assert!(lint_source("crates/x/src/a.rs", caught).is_empty());
        let policy = concat!(
            "fn f() {\n",
            "    // panic-policy: a worker death is a modeled fault; the\n",
            "    // supervisor sweep detects and resurrects it.\n",
            "    std::thread::spawn(move || {\n",
            "        work();\n",
            "    });\n",
            "}\n",
        );
        assert!(lint_source("crates/x/src/a.rs", policy).is_empty());
    }

    #[test]
    fn sleeps_say_what_their_timer_is_for() {
        let path = "crates/err-runtime/src/shard.rs";
        let bare = "fn f(c: &WakeCell) {\n    c.idle_unless(ready, PARK_TIMEOUT);\n}\n";
        assert_eq!(rules_of(&lint_source(path, bare)), ["backstop"]);
        // Outside the threaded crates the pass does not run; a
        // definition or an import is not a call.
        assert!(lint_source("crates/x/src/a.rs", bare).is_empty());
        let decl = "use std::thread::{park_timeout, Thread};\npub fn idle_unless(&self) {}\n";
        assert!(lint_source(path, decl).is_empty());
        let sleep = |verdict: &str, timeout: &str| {
            format!(
                "fn wake_it() {{}}\nfn f(c: &WakeCell, timeout: Duration) {{\n    \
                 // backstop: {verdict}\n    c.idle_unless(\n        ready,\n        \
                 {timeout},\n    );\n}}\n"
            )
        };
        let lint = |verdict: &str, timeout: &str| {
            rules_of(&lint_files(&[(path.to_owned(), sleep(verdict, timeout))]))
        };
        assert!(lint("covered by `wake_it`.", "BACKSTOP").is_empty());
        assert_eq!(lint("covered by `wake_it`.", "PARK_TIMEOUT"), ["backstop"]);
        assert_eq!(lint("covered by `ghost_wake`.", "BACKSTOP"), ["backstop"]);
        assert_eq!(lint("covered by somebody.", "BACKSTOP"), ["backstop"]);
        assert!(lint("polls arrivals.", "PARK_TIMEOUT").is_empty());
        assert_eq!(lint("polls arrivals.", "BACKSTOP"), ["backstop"]);
        assert!(lint("forwards the caller's `timeout`.", "timeout").is_empty());
        assert_eq!(lint("forwards.", "PARK_TIMEOUT"), ["backstop"]);
        assert_eq!(lint("whatever.", "PARK_TIMEOUT"), ["backstop"]);
    }

    #[test]
    fn pair_clause_and_backtick_parsing() {
        let (clauses, malformed) =
            pair_clauses("x [pair: a @ self] then [pair: b @ crates/x/src/a.rs]");
        assert!(!malformed);
        assert_eq!(
            clauses,
            [
                ("a".to_owned(), "self".to_owned()),
                ("b".to_owned(), "crates/x/src/a.rs".to_owned()),
            ]
        );
        assert!(pair_clauses("[pair: broken").1);
        assert!(pair_clauses("[pair: no-at-sign]").1);
        assert_eq!(
            backticked_idents("the `refill` helper, via `park_flow(flow)`"),
            ["refill", "park_flow"]
        );
        assert!(backticked_idents("`42` and `!` are not identifiers").is_empty());
    }

    #[test]
    fn doc_name_shapes() {
        assert_eq!(
            doc_name("Fabric::drain_within(Some(..))"),
            Some("Fabric::drain_within")
        );
        assert_eq!(doc_name("Vec<u32>"), Some("Vec"));
        assert_eq!(doc_name("idle_while_*"), Some("idle_while_*"));
        for prose in [
            "err-check lint",
            "// backstop:",
            "a.b",
            "3m",
            "head/tail: u32",
        ] {
            assert_eq!(doc_name(prose), None, "{prose}");
        }
        assert_eq!(
            doc_file("crates/err-check/src/lib.rs:117"),
            Some("crates/err-check/src/lib.rs")
        );
        assert_eq!(doc_file("fixtures/*.md"), None);
        assert!(names_a_pr("went in PR 43") && names_a_pr("PRs 42–44"));
        assert!(!names_a_pr("PRIORITY 4"));
    }

    #[test]
    fn every_normative_design_section_has_a_doc_rule() {
        let design =
            std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
        // Retired numbers stay unused so §14's citations keep their
        // target: §12 (what-if estimation) was deleted with its
        // estimator, §13 (flow ownership) was merged into §8.
        const RETIRED: &[&str] = &["## 12", "## 13"];
        for n in 8..=14 {
            let heading = format!("## {n}");
            if RETIRED.contains(&heading.as_str()) {
                assert!(
                    !design.contains(&format!("\n{heading}")),
                    "DESIGN.md `{heading}` is retired and must stay absent"
                );
                continue;
            }
            assert!(
                design.contains(&format!("\n{heading}")),
                "DESIGN.md lost its normative section `{heading}`"
            );
            assert!(
                DOC_RULES
                    .iter()
                    .any(|r| r.doc == "DESIGN.md" && r.section == Some(heading.as_str())),
                "normative DESIGN.md section `{heading}` has no doc-drift rule; \
                 add one to rules::DOC_RULES"
            );
        }
    }

    #[test]
    fn passes_registry_covers_every_emitted_rule() {
        // Every rule id a lint pass can emit; a new pass must register
        // itself in `rules::PASSES` so `lint --list` stays honest.
        let emitted = [
            "safety-comment",
            "ordering-comment",
            "seqcst-scope",
            "no-std-mutex",
            "stats-relaxed",
            "try-emit-override",
            "ordering-pairing",
            "park-protocol",
            "panic-boundary",
            "backstop",
            "doc-drift",
            "doc-names",
        ];
        for rule in emitted {
            assert!(
                PASSES.iter().any(|(id, _)| *id == rule),
                "pass `{rule}` missing from the rules::PASSES registry"
            );
        }
        assert_eq!(
            PASSES.len(),
            emitted.len(),
            "PASSES lists a pass no lint emits"
        );
    }
}
