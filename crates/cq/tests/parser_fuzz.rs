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
//!
//! A round-trip property covers the degenerate inputs no text fuzz
//! reaches: queries built through `ConjunctiveQuery::new` over
//! vocabularies of one to three relations of arity 1–4, with repeated
//! variables and 1–130 variables, so bitsets over them cross one and
//! two words. Each prints as text that parses back to itself, its
//! tableau reads back as itself up to atom order and repeated atoms,
//! and the tableau's element names are its variable names; `new` still
//! refuses an atom of the wrong arity and an unsafe head. Arity 0 is
//! drawn too: no vocabulary holds a 0-ary symbol (`Vocabulary::new`
//! panics), so a nullary atom is refused where text names one.
//!
//! The `#[ignore]`d `deep_parser_fuzz` runs 10⁵ inputs of each kind, and
//! `deep_round_trip` 2·10⁴ built queries:
//! `cargo test --release -p cqapx-cq --test parser_fuzz -- --ignored`.

use cqapx_cq::{parse_cq, parse_cq_with_vocab, query_from_tableau, tableau_of, ConjunctiveQuery};
use cqapx_structures::{RelId, Vocabulary};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// A query's atoms as a sorted set of `(relation, arguments)`.
fn atom_set(q: &ConjunctiveQuery) -> Vec<(RelId, Vec<u32>)> {
    let mut atoms: Vec<_> = q.atoms().map(|a| (a.rel, a.args.to_vec())).collect();
    atoms.sort_unstable();
    atoms.dedup();
    atoms
}

/// The query `seed` draws over relations of the given arities (those of
/// arity 0 left out) and `n` variables: atoms over fresh variables, in
/// order, mixed with repeats of earlier ones until every variable
/// occurs, then up to three atoms over any, and a head of up to three
/// positions. Variable `i` is named `x{i}`, `_{i}` or `y{i}'`.
fn built(arities: &[usize], n: u32, seed: u64) -> ConjunctiveQuery {
    let rels: Vec<(String, usize)> = (arities.iter().enumerate())
        .filter(|&(_, &a)| a > 0)
        .map(|(i, &a)| (format!("R{i}"), a))
        .collect();
    let vocab = Vocabulary::new(rels.iter().map(|(r, a)| (r.as_str(), *a)).collect());
    let mut state = seed;
    let mut draw = |bound: u32| {
        state = (state.wrapping_mul(6364136223846793005)).wrapping_add(1442695040888963407);
        (state >> 33) as u32 % bound.max(1)
    };
    let (mut atoms, mut fresh) = (Vec::new(), 0);
    while fresh < n || atoms.is_empty() {
        let rel = RelId(draw(rels.len() as u32));
        let args: Vec<u32> = (0..vocab.arity(rel))
            .map(|_| match fresh < n && (fresh == 0 || draw(3) > 0) {
                true => (fresh, fresh += 1).0,
                false => draw(fresh),
            })
            .collect();
        atoms.push((rel, args));
    }
    for _ in 0..draw(4) {
        let rel = RelId(draw(rels.len() as u32));
        atoms.push((rel, (0..vocab.arity(rel)).map(|_| draw(n)).collect()));
    }
    let head = (0..draw(4)).map(|_| draw(n)).collect();
    let names = (0..n).map(|i| match i % 3 {
        0 => format!("x{i}"),
        1 => format!("_{i}"),
        _ => format!("y{i}'"),
    });
    ConjunctiveQuery::new(vocab, names, head, atoms)
}

/// The round trip of the query [`built`] draws, and `new`'s refusals;
/// with an arity 0 drawn, the refusals of a nullary symbol instead.
fn round_trip(arities: &[usize], n: u32, seed: u64) {
    if arities.contains(&0) {
        let nullary = panic_message(|| Vocabulary::new(vec![("P", 0)]));
        assert!(nullary.contains("arity >= 1"), "a 0-ary symbol: {nullary}");
    }
    if arities.iter().all(|&a| a == 0) {
        assert!(parse_cq("Q() :- P()").is_err());
        return;
    }
    let q = built(arities, n, seed);
    let text = q.to_string();
    assert_eq!(
        parse_cq_with_vocab(&text, q.vocabulary()).as_ref(),
        Ok(&q),
        "{text}"
    );
    if arities.contains(&0) {
        assert!(parse_cq(&format!("{text}, P()")).is_err(), "{text}, P()");
    }
    let t = tableau_of(&q);
    for v in 0..q.var_count() as u32 {
        assert_eq!(t.structure.element_name(v), q.var_name(v), "{text}");
    }
    let back = query_from_tableau(&t);
    assert_eq!(
        (back.vocabulary(), back.var_names(), back.free_vars()),
        (q.vocabulary(), q.var_names(), q.free_vars()),
        "{text}"
    );
    assert_eq!(atom_set(&back), atom_set(&q), "{text}");
    // One argument too many, then a head variable no atom holds.
    let names = || q.var_names().iter();
    let atoms = || q.atoms().map(|a| (a.rel, a.args.to_vec()));
    let mut long: Vec<_> = atoms().collect();
    long[0].1.push(0);
    let vocab = || q.vocabulary().clone();
    let wrong_arity = panic_message(|| ConjunctiveQuery::new(vocab(), names(), vec![], long));
    assert!(
        wrong_arity.contains("arity mismatch"),
        "{text}: {wrong_arity}"
    );
    let unsafe_head = panic_message(|| {
        let names = names().chain(["w"]);
        ConjunctiveQuery::new(vocab(), names, vec![q.var_count() as u32], atoms())
    });
    assert!(unsafe_head.contains("(safety)"), "{text}: {unsafe_head}");
}

/// The message `f` panics with; empty when it returns.
fn panic_message<T>(f: impl FnOnce() -> T) -> String {
    let Err(payload) = catch_unwind(AssertUnwindSafe(f)) else {
        return String::new();
    };
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// Arities of up to three relations, a variable count and a seed.
fn shapes() -> impl Strategy<Value = (Vec<usize>, u32, u64)> {
    (
        proptest::collection::vec(0..=4usize, 1..=3),
        1..=130u32,
        any::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Built queries round-trip through text and tableaux.
    #[test]
    fn built_queries_round_trip(shape in shapes()) {
        round_trip(&shape.0, shape.1, shape.2);
    }

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// 2·10⁴ built queries round-tripped.
    #[test]
    #[ignore = "deep round trip: run with --ignored"]
    fn deep_round_trip(shape in shapes()) {
        round_trip(&shape.0, shape.1, shape.2);
    }
}
