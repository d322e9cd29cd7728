//! A fuzz loop over the query parser. Inputs are raw bytes read through
//! `String::from_utf8_lossy`; strings over the parser's own token
//! alphabet — relation and variable names, primes and underscores,
//! brackets, commas, `:-` and a lone `:`, a non-ASCII letter, a digit
//! and whitespace — which reach deeper into the grammar than bytes do;
//! and queries in the grammar's shape over that alphabet with a few
//! tokens replaced, dropped or repeated, which the parser often
//! accepts. On every input `parse_cq` and `parse_cq_with_vocab` return
//! instead of panicking, and every query either accepts prints as text
//! that parses back to the same text when the vocabulary is inferred,
//! and to the same query under the query's own vocabulary.
//!
//! The `#[ignore]`d `deep_parser_fuzz` runs 10⁵ inputs of each kind:
//! `cargo test --release -p cqapx-cq --test parser_fuzz -- --ignored`.

use cqapx_cq::{parse_cq, parse_cq_with_vocab, ConjunctiveQuery};
use cqapx_structures::Vocabulary;
use proptest::prelude::*;

/// The token alphabet of the structured inputs.
const TOKENS: [&str; 20] = [
    "Q", "E", "R", "x", "y", "z", "x'", "_", "(", ")", ",", ":-", ":", "é", "0", " ", "\t", "\n",
    "", "  ",
];

/// Raw bytes as text, invalid UTF-8 replaced.
fn bytes() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..48)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// Up to 40 tokens of [`TOKENS`], concatenated.
fn tokens() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TOKENS.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

/// Up to three variables, as indices of [`TOKENS`]' variable names.
fn vars() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(3..8usize, 0..=3)
}

/// `Q(vars) :- atom, …` as tokens of [`TOKENS`], spaced by whitespace
/// tokens — half the atoms at the arity of `E/2, R/1` — then up to
/// three edits: at a position, a token of
/// [`TOKENS`] replaces the one there (`0`), the one there is dropped
/// (`1`), or the token is inserted (`2`).
fn shaped() -> impl Strategy<Value = String> {
    let atom = (1..3usize, vars(), any::<bool>());
    let body = proptest::collection::vec(atom, 1..=3);
    let edit = (any::<usize>(), 0..3u8, 0..TOKENS.len());
    let edits = proptest::collection::vec(edit, 0..=3);
    (vars(), body, edits, 15..20usize).prop_map(|(head, body, edits, space)| {
        let mut toks: Vec<usize> = Vec::new();
        let atom = |rel: usize, args: &[usize], toks: &mut Vec<usize>| {
            toks.extend([rel, 8]);
            for (i, &v) in args.iter().enumerate() {
                if i > 0 {
                    toks.extend([10, space]);
                }
                toks.push(v);
            }
            toks.push(9);
        };
        atom(0, &head, &mut toks);
        toks.extend([space, 11, space]);
        for (i, (rel, mut args, fixed)) in body.into_iter().enumerate() {
            if i > 0 {
                toks.extend([10, space]);
            }
            if fixed {
                args.resize(3 - rel, 3);
            }
            atom(rel, &args, &mut toks);
        }
        for (at, kind, tok) in edits {
            let at = at % (toks.len() + 1);
            match (kind, at < toks.len()) {
                (0, true) => toks[at] = tok,
                (1, true) => {
                    toks.remove(at);
                }
                _ => toks.insert(at, tok),
            }
        }
        toks.into_iter().map(|i| TOKENS[i]).collect()
    })
}

/// `q` prints as text that parses back to the same text, inferring the
/// vocabulary, and to `q` itself under `q`'s vocabulary.
fn reparses(q: &ConjunctiveQuery, input: &str) {
    let text = q.to_string();
    let inferred = parse_cq(&text).unwrap_or_else(|e| panic!("{input:?} → {text:?}: {e}"));
    assert_eq!(inferred.to_string(), text, "{input:?}");
    let own = parse_cq_with_vocab(&text, q.vocabulary());
    let own = own.unwrap_or_else(|e| panic!("{input:?} → {text:?}: {e}"));
    assert_eq!(&own, q, "{input:?} → {text:?}");
}

/// Both parsers on `input`, and every query they accept reparsed; the
/// fixed vocabulary is `E/2, R/1`.
fn check(input: &str) {
    if let Ok(q) = parse_cq(input) {
        reparses(&q, input);
    }
    let vocab = Vocabulary::new(vec![("E", 2), ("R", 1)]);
    if let Ok(q) = parse_cq_with_vocab(input, &vocab) {
        assert_eq!(q.vocabulary(), &vocab, "{input:?}");
        reparses(&q, input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Raw bytes.
    #[test]
    fn parser_survives_bytes(input in bytes()) {
        check(&input);
    }

    /// Token strings.
    #[test]
    fn parser_survives_tokens(input in tokens()) {
        check(&input);
    }

    /// Queries in the grammar's shape, edited.
    #[test]
    fn parser_survives_edited_queries(input in shaped()) {
        check(&input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    /// 10⁵ raw byte strings, token strings and edited queries.
    #[test]
    #[ignore = "deep fuzz: run with --ignored"]
    fn deep_parser_fuzz(input in (bytes(), tokens(), shaped())) {
        check(&input.0);
        check(&input.1);
        check(&input.2);
    }
}
