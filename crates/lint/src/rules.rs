//! The shipped rule catalog. Each rule encodes one of the repo's actual
//! contracts, five on the hot paths and one on the public surface (see
//! ARCHITECTURE.md → "sm-lint" for the catalog with rationale); all are
//! deliberately *lexical* — they match scoped
//! token patterns, not types — so what they can and cannot see is spelled
//! out per rule. Adding a rule = implement [`Rule`], add it to
//! [`default_rules`] (or, if it needs the whole workspace, to
//! [`workspace_rules`]) and [`crate::RULE_IDS`], document it, and give it
//! one failing and one passing fixture under `tests/fixtures/`.

use crate::lexer::{Token, TokenKind};
use crate::{is_library_path, is_test_path, NameIndex, Rule, SourceFile};

/// The five per-file rules, in catalog order: each judges a file by its
/// own tokens, so they can lint a lone file.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoPanicSurface),
        Box::new(NarrowingCast),
        Box::new(LockDiscipline),
        Box::new(NoStrayThreads),
        Box::new(SwallowedResults),
    ]
}

/// All six shipped rules, in catalog order: the per-file ones, then
/// `unreferenced-pub`, which judges each file against `index`, the names
/// the rest of the workspace uses.
pub fn workspace_rules(index: NameIndex) -> Vec<Box<dyn Rule>> {
    let mut rules = default_rules();
    rules.push(Box::new(UnreferencedPub { index }));
    rules
}

fn text<'a>(toks: &'a [Token<'_>], i: usize) -> &'a str {
    toks.get(i).map(|t| t.text).unwrap_or("")
}

/// Text of the token `back` positions before `i`, or `""` off the front.
fn text_before<'a>(toks: &'a [Token<'_>], i: usize, back: usize) -> &'a str {
    i.checked_sub(back).map(|j| text(toks, j)).unwrap_or("")
}

/// **no-panic-surface** — the PR-6 guarantee "no unwrap/expect in the
/// loop", machine-checked: `.unwrap()` / `.expect()` (and their `_err`
/// variants) plus the `panic!` / `unreachable!` / `todo!` /
/// `unimplemented!` / `assert!`-family macros are forbidden in the
/// non-test code of the serving hot paths — `sm-serve`, the `sm-sim`
/// engines, `sm_core::parallel`, and the §5 dynamic server
/// (`sm_server::dynamic`, whose pipeline workers report typed errors).
/// `debug_assert*` is deliberately exempt: it compiles out of the release
/// builds that serve traffic.
pub struct NoPanicSurface;

const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

impl Rule for NoPanicSurface {
    fn id(&self) -> &'static str {
        "no-panic-surface"
    }

    fn applies(&self, path: &str) -> bool {
        !is_test_path(path)
            && (path.starts_with("crates/serve/src/")
                || path.starts_with("crates/sim/src/engine")
                || path == "crates/core/src/parallel.rs"
                || path == "crates/server/src/dynamic.rs")
    }

    fn check(&self, file: &SourceFile<'_>) -> Vec<(u32, String)> {
        let toks = &file.lexed.tokens;
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || file.is_test_line(t.line) {
                continue;
            }
            if PANIC_METHODS.contains(&t.text)
                && text_before(toks, i, 1) == "."
                && text(toks, i + 1) == "("
            {
                out.push((
                    t.line,
                    format!(".{}() is panic surface in a serving hot path", t.text),
                ));
            } else if PANIC_MACROS.contains(&t.text) && text(toks, i + 1) == "!" {
                out.push((
                    t.line,
                    format!("{}! is panic surface in a serving hot path", t.text),
                ));
            }
        }
        out
    }
}

/// **narrowing-cast** — the PR-2 cast audit, mechanized: in non-test
/// library code, `as` casts to a type that can silently lose value
/// (`u8`/`u16`/`u32`/`i8`/`i16`/`i32`/`f32`/`isize`/`char`) must be
/// provably widening or carry a waiver. "Provably widening" is decided
/// lexically: the cast source is an integer literal whose value (or
/// suffixed type) fits the target. Casts to `u64`/`i64`/`u128`/`i128`/
/// `f64`/`usize` are widening-by-convention on the project's 64-bit
/// targets — exactly the line the manual audit drew — and pass unflagged.
pub struct NarrowingCast;

const SUSPECT_TARGETS: [&str; 9] = [
    "u8", "u16", "u32", "i8", "i16", "i32", "f32", "isize", "char",
];

/// Greatest value representable in `target` losslessly from an unsigned
/// integer literal.
fn target_max(target: &str) -> u128 {
    match target {
        "u8" => u8::MAX as u128,
        "u16" => u16::MAX as u128,
        "u32" => u32::MAX as u128,
        "i8" => i8::MAX as u128,
        "i16" => i16::MAX as u128,
        "i32" => i32::MAX as u128,
        // f32 has a 24-bit significand: integers beyond 2^24 start rounding.
        "f32" => 1 << 24,
        "isize" => i64::MAX as u128,
        "char" => 0xFF, // `<lit> as char` is only valid from u8 range
        _ => u128::MAX,
    }
}

/// Splits `10_000u64` into value and suffix; returns `None` for literals
/// this check does not model (floats, overlong values).
fn literal_value(text: &str) -> Option<(u128, &str)> {
    let digits_end = if let Some(rest) = text.strip_prefix("0x") {
        2 + rest
            .find(|c: char| !c.is_ascii_hexdigit() && c != '_')
            .unwrap_or(rest.len())
    } else if let Some(rest) = text.strip_prefix("0b").or_else(|| text.strip_prefix("0o")) {
        2 + rest
            .find(|c: char| !c.is_ascii_digit() && c != '_')
            .unwrap_or(rest.len())
    } else {
        text.find(|c: char| !c.is_ascii_digit() && c != '_')
            .unwrap_or(text.len())
    };
    let (num, suffix) = text.split_at(digits_end);
    if suffix.starts_with(['.', 'e', 'E']) || suffix.starts_with("f32") || suffix.starts_with("f64")
    {
        return None; // float literal
    }
    let cleaned: String = num.chars().filter(|c| *c != '_').collect();
    let value = if let Some(hex) = cleaned.strip_prefix("0x") {
        u128::from_str_radix(hex, 16).ok()?
    } else if let Some(bin) = cleaned.strip_prefix("0b") {
        u128::from_str_radix(bin, 2).ok()?
    } else if let Some(oct) = cleaned.strip_prefix("0o") {
        u128::from_str_radix(oct, 8).ok()?
    } else {
        cleaned.parse().ok()?
    };
    Some((value, suffix))
}

/// `true` when a cast from the literal-suffix type `source` to `target`
/// can never lose value.
fn suffix_widens(source: &str, target: &str) -> bool {
    let bits = |t: &str| -> Option<(u32, bool)> {
        Some(match t {
            "u8" => (8, false),
            "u16" => (16, false),
            "u32" => (32, false),
            "i8" => (8, true),
            "i16" => (16, true),
            "i32" => (32, true),
            _ => return None,
        })
    };
    let (sb, ss) = match bits(source) {
        Some(v) => v,
        None => return false,
    };
    match target {
        "f32" => sb <= 16, // ≤ 16-bit integers fit f32's 24-bit significand
        t => {
            let (tb, ts) = match bits(t) {
                Some(v) => v,
                None => return false,
            };
            match (ss, ts) {
                (false, false) | (true, true) => sb <= tb,
                (false, true) => sb < tb,
                (true, false) => false,
            }
        }
    }
}

impl Rule for NarrowingCast {
    fn id(&self) -> &'static str {
        "narrowing-cast"
    }

    fn applies(&self, path: &str) -> bool {
        is_library_path(path)
    }

    fn check(&self, file: &SourceFile<'_>) -> Vec<(u32, String)> {
        let toks = &file.lexed.tokens;
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "as" || file.is_test_line(t.line) {
                continue;
            }
            let target = text(toks, i + 1);
            if !SUSPECT_TARGETS.contains(&target) {
                continue;
            }
            let Some(prev) = i.checked_sub(1).and_then(|j| toks.get(j)) else {
                continue;
            };
            if prev.kind == TokenKind::Number {
                if let Some((value, suffix)) = literal_value(prev.text) {
                    let provable = if suffix.is_empty() {
                        value <= target_max(target)
                    } else {
                        suffix_widens(suffix, target) || value <= target_max(target)
                    };
                    if provable {
                        continue;
                    }
                }
            }
            out.push((
                t.line,
                format!("`as {target}` may narrow — prove the range or waive with a reason"),
            ));
        }
        out
    }
}

/// **lock-discipline** — the PR-3/4 nesting-guard hazard, mechanized: no
/// `.lock()` or Condvar `.wait*()` lexically inside a closure passed to
/// `parallel_map` / `pipeline` (a worker blocking on a lock serializes
/// the shard or deadlocks against the channel), and no `parallel_map` /
/// `pipeline` call nested inside another's argument list (the inner call
/// runs guard-degraded — sequential/inline — which is almost never what
/// the author meant). Lexical scope: only call sites whose closures are
/// written inline are seen; work factored into a named function is the
/// reviewer's job, and the rule says so in its finding text.
pub struct LockDiscipline;

const GUARD_ENTRY_POINTS: [&str; 2] = ["parallel_map", "pipeline"];
const BLOCKING_CALLS: [&str; 4] = ["lock", "wait", "wait_while", "wait_timeout"];

impl Rule for LockDiscipline {
    fn id(&self) -> &'static str {
        "lock-discipline"
    }

    fn applies(&self, path: &str) -> bool {
        is_library_path(path)
    }

    fn check(&self, file: &SourceFile<'_>) -> Vec<(u32, String)> {
        let toks = &file.lexed.tokens;
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident
                || !GUARD_ENTRY_POINTS.contains(&t.text)
                || file.is_test_line(t.line)
                || text(toks, i + 1) != "("
            {
                continue;
            }
            // Walk the balanced argument region of this call.
            let mut depth = 1i64;
            let mut j = i + 2;
            while j < toks.len() && depth > 0 {
                match toks[j].text {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
                let tj = &toks[j];
                if tj.kind == TokenKind::Ident {
                    if BLOCKING_CALLS.contains(&tj.text)
                        && text_before(toks, j, 1) == "."
                        && text(toks, j + 1) == "("
                    {
                        out.push((
                            tj.line,
                            format!(
                                ".{}() inside a `{}` argument: workers must not block on \
                                 locks or condvars",
                                tj.text, t.text
                            ),
                        ));
                    } else if GUARD_ENTRY_POINTS.contains(&tj.text) && text(toks, j + 1) == "(" {
                        out.push((
                            tj.line,
                            format!(
                                "`{}` nested inside `{}`: the nesting guard degrades the inner \
                                 call to sequential — hoist it out or waive deliberately",
                                tj.text, t.text
                            ),
                        ));
                    }
                }
                j += 1;
            }
        }
        out
    }
}

/// **no-stray-threads** — all concurrency flows through `sm-core`'s
/// primitives: `std::thread::spawn` / `thread::scope` /
/// `thread::Builder` are forbidden in non-test library code outside
/// `crates/core`, so the nesting guard and the pinned-equivalence
/// proptests keep seeing every thread the workspace creates.
pub struct NoStrayThreads;

impl Rule for NoStrayThreads {
    fn id(&self) -> &'static str {
        "no-stray-threads"
    }

    fn applies(&self, path: &str) -> bool {
        is_library_path(path) && !path.starts_with("crates/core/src")
    }

    fn check(&self, file: &SourceFile<'_>) -> Vec<(u32, String)> {
        let toks = &file.lexed.tokens;
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "thread" || file.is_test_line(t.line) {
                continue;
            }
            if text(toks, i + 1) == ":" && text(toks, i + 2) == ":" {
                let callee = text(toks, i + 3);
                if matches!(callee, "spawn" | "scope" | "Builder") {
                    out.push((
                        t.line,
                        format!(
                            "thread::{callee} outside sm-core — route concurrency through \
                             sm_core::parallel_map / sm_core::pipeline"
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// **swallowed-results** — `let _ = …` in non-test library code discards
/// a value that is usually a `Result` (the lexer cannot see types; the
/// pattern is the contract). The one sanctioned discard is
/// `let _ = write!/writeln!(…)` into an in-memory buffer — `fmt::Write`
/// to a `String` cannot fail and the render layer leans on it — so those
/// two macros are exempt by design.
pub struct SwallowedResults;

impl Rule for SwallowedResults {
    fn id(&self) -> &'static str {
        "swallowed-results"
    }

    fn applies(&self, path: &str) -> bool {
        is_library_path(path)
    }

    fn check(&self, file: &SourceFile<'_>) -> Vec<(u32, String)> {
        let toks = &file.lexed.tokens;
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "let" || file.is_test_line(t.line) {
                continue;
            }
            if text(toks, i + 1) != "_" || text(toks, i + 2) != "=" {
                continue;
            }
            // `let _ ==`? Not a binding; and `=` followed by `>` cannot
            // occur after `let _`.
            let head = text(toks, i + 3);
            if matches!(head, "write" | "writeln") && text(toks, i + 4) == "!" {
                continue;
            }
            out.push((
                t.line,
                "`let _ =` swallows the call's Result — handle it, bubble it, or waive with \
                 a reason"
                    .to_string(),
            ));
        }
        out
    }
}

/// **unreferenced-pub** — every public function earns its place: a
/// `pub fn` (free or inherent; `pub(crate)` and narrower are not public)
/// in non-test library code must be named by the code of some other file
/// in the [`NameIndex`]. The index holds every walked file, tests,
/// examples and benches included, and the nested benchmark workspace,
/// which calls the library too. A function only its own file calls should
/// be private; one only tests call belongs under `#[cfg(test)]`. Lexical
/// like the rest: a name shared by two functions counts for both.
pub struct UnreferencedPub {
    index: NameIndex,
}

/// Words that may sit between `pub` and `fn`.
const FN_QUALIFIERS: [&str; 4] = ["const", "async", "unsafe", "extern"];

impl Rule for UnreferencedPub {
    fn id(&self) -> &'static str {
        "unreferenced-pub"
    }

    fn applies(&self, path: &str) -> bool {
        is_library_path(path)
    }

    fn check(&self, file: &SourceFile<'_>) -> Vec<(u32, String)> {
        let toks = &file.lexed.tokens;
        let mut out = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "pub" || file.is_test_line(t.line) {
                continue;
            }
            let mut j = i + 1;
            while FN_QUALIFIERS.contains(&text(toks, j))
                || toks.get(j).is_some_and(|t| t.kind == TokenKind::Str)
            {
                j += 1;
            }
            if text(toks, j) != "fn" {
                continue;
            }
            let name = text(toks, j + 1);
            if !self.index.named_outside(name, &file.path) {
                out.push((
                    t.line,
                    format!(
                        "`pub fn {name}` has no caller outside this file — make it private, \
                         move it under #[cfg(test)], delete it, or waive with a reason"
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_values_parse_with_radix_and_underscores() {
        assert_eq!(literal_value("255"), Some((255, "")));
        assert_eq!(literal_value("0xff"), Some((255, "")));
        assert_eq!(literal_value("1_000u64"), Some((1000, "u64")));
        assert_eq!(literal_value("0b1010"), Some((10, "")));
        assert_eq!(literal_value("2.5"), None);
        assert_eq!(literal_value("1e9"), None);
    }

    #[test]
    fn suffix_widening_table() {
        assert!(suffix_widens("u8", "u32"));
        assert!(suffix_widens("u8", "i16"));
        assert!(!suffix_widens("u8", "i8"));
        assert!(!suffix_widens("i8", "u32"));
        assert!(suffix_widens("u16", "f32"));
        assert!(!suffix_widens("u32", "f32"));
        assert!(!suffix_widens("u64", "u32"));
    }
}
