//! Property tests for the lexer: on arbitrary input it must never
//! panic, and the token spans must partition the input exactly — every
//! byte belongs to exactly one token, in order.

use droplens_lint::lexer::lex;
use proptest::prelude::*;

/// Check the span invariants on one input.
fn spans_partition(src: &str) -> Result<(), TestCaseError> {
    let tokens = lex(src);
    let mut pos = 0usize;
    let mut line = 1u32;
    for t in &tokens {
        prop_assert_eq!(t.start, pos, "token starts where the last ended");
        prop_assert_eq!(
            &src[t.start..t.start + t.text.len()],
            t.text,
            "span round-trips through the source"
        );
        prop_assert!(t.line >= line, "line numbers are monotonic");
        line = t.line;
        prop_assert!(!t.text.is_empty(), "no empty tokens");
        pos += t.text.len();
    }
    prop_assert_eq!(pos, src.len(), "tokens cover the whole input");
    Ok(())
}

/// The constructs the lexer special-cases, biased toward the tricky
/// boundaries: raw strings, lifetimes vs. char literals, nested and
/// unterminated comments, stray openers.
fn rust_fragments() -> Vec<&'static str> {
    vec![
        "fn f",
        "let x = 1;",
        "\"str\"",
        "\"unterminated",
        "\"esc \\\" quote\"",
        "// line\n",
        "/* block */",
        "/* nested /* deeper */ */",
        "/* unterminated",
        "'a",
        "'static",
        "'c'",
        "'\\n'",
        "r#\"raw \" quote\"#",
        "r#unraw",
        "b\"bytes\"",
        "br#\"raw bytes\"#",
        "c\"c string\"",
        ".unwrap()",
        ".expect(\"m\")",
        "panic!(\"p\")",
        "{",
        "}",
        "\n",
        "#",
        "r\"",
        "b'",
        "0x1f",
        "1_000.5e-3",
        "ident",
        "::",
        "#[cfg(test)]",
        "// lint: allow(lock-across-io)\n",
        "é λ 🦀",
    ]
}

proptest! {
    /// Arbitrary bytes pushed through `from_utf8_lossy` — exercises
    /// multi-byte boundaries, stray quotes, and control characters.
    #[test]
    fn arbitrary_input_never_panics(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        spans_partition(&src)?;
    }

    /// Rust-shaped soup — random concatenations of the special-cased
    /// constructs, so adjacent fragments form new boundary cases.
    #[test]
    fn rusty_soup_never_panics(parts in prop::collection::vec(
        prop::sample::select(rust_fragments()),
        0..48,
    )) {
        let src = parts.concat();
        spans_partition(&src)?;
    }
}
