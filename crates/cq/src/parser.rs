//! A parser for rule-notation conjunctive queries.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query  := head ":-" body
//! head   := name "(" vars? ")"
//! body   := atom ("," atom)*
//! atom   := name "(" vars ")"
//! vars   := var ("," var)*
//! var    := [A-Za-z_][A-Za-z0-9_']*
//! ```
//!
//! The vocabulary is inferred from the body (relation names with their
//! arities) unless one is supplied via [`parse_cq_with_vocab`].
//!
//! Tokens borrow the input: an identifier is a `&str` slice of it, and
//! a variable is looked up by that slice. One pass reads the head and
//! then each body atom, resolving its relation and interning its
//! variables straight into the query's argument buffer and per-atom
//! ends, both sized from the input before the pass; a second read
//! copies each variable's name once into the query's one name table, at
//! its exact size. So a parse allocates per query, never per atom,
//! variable or token.

use crate::ast::{ConjunctiveQuery, Parts, VarId};
use cqapx_structures::{Names, RelId, Vocabulary};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
    })
}

struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token<'a> {
    Ident(&'a str),
    LParen,
    RParen,
    Comma,
    Implies,
    End,
}

impl<'a> Lexer<'a> {
    fn next_token(&mut self) -> Result<Token<'a>, ParseError> {
        let rest = self.input[self.pos..].trim_start_matches(|c: char| c.is_ascii_whitespace());
        self.pos = self.input.len() - rest.len();
        let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'';
        let (token, len) = match rest.as_bytes().first() {
            None => (Token::End, 0),
            Some(b'(') => (Token::LParen, 1),
            Some(b')') => (Token::RParen, 1),
            Some(b',') => (Token::Comma, 1),
            Some(b':') if rest.starts_with(":-") => (Token::Implies, 2),
            Some(b':') => return err(format!("expected ':-' at byte {}", self.pos)),
            Some(&c) if c.is_ascii_alphabetic() || c == b'_' => {
                let len = rest.bytes().position(|b| !ident(b)).unwrap_or(rest.len());
                (Token::Ident(&rest[..len]), len)
            }
            Some(&c) => {
                let at = self.pos;
                return err(format!("unexpected character {:?} at byte {at}", c as char));
            }
        };
        self.pos += len;
        Ok(token)
    }

    /// Parses `name "(" vars? ")"` into `name`, handing each variable
    /// to `var` as it is read. Only a head may have no variables.
    fn atom(
        &mut self,
        mut var: impl FnMut(&'a str) -> Result<(), ParseError>,
    ) -> Result<&'a str, ParseError> {
        let name = match self.next_token()? {
            Token::Ident(s) => s,
            other => return err(format!("expected a relation name, found {other:?}")),
        };
        match self.next_token()? {
            Token::LParen => {}
            other => return err(format!("expected '(' after {name}, found {other:?}")),
        }
        // Allow empty head Q().
        let save = self.pos;
        match self.next_token()? {
            Token::RParen => return Ok(name),
            _ => self.pos = save,
        }
        loop {
            match self.next_token()? {
                Token::Ident(s) => var(s)?,
                other => return err(format!("expected a variable, found {other:?}")),
            }
            match self.next_token()? {
                Token::Comma => continue,
                Token::RParen => return Ok(name),
                other => return err(format!("expected ',' or ')', found {other:?}")),
            }
        }
    }
}

/// The most atoms, and variables, a parse sizes its buffers for before
/// reading them.
const PRESIZED: usize = 256;

/// The pass both entry points share: the head, then every body atom
/// resolved by `relation(name, arity)` and its variables interned, by
/// their borrowed names, as it is read. The head is then read again, its
/// variables looked up, and so is the body, each variable's name copied
/// where it first occurs into a name table of exact size. The other
/// buffers are sized up front from the input's parentheses and commas
/// (each atom opens one, each variable follows one), so none grows — up
/// to [`PRESIZED`] entries, so that a malformed input is not handed a
/// buffer its length alone asks for.
fn parse<'a>(
    input: &'a str,
    mut relation: impl FnMut(&'a str, usize) -> Result<RelId, ParseError>,
) -> Result<Parts, ParseError> {
    let count = |c: u8| input.bytes().filter(|&b| b == c).count().min(PRESIZED);
    let (opens, commas) = (count(b'('), count(b','));
    let mut lx = Lexer { input, pos: 0 };
    let mut arity = 0;
    lx.atom(|_| {
        arity += 1;
        Ok(())
    })?;
    match lx.next_token()? {
        Token::Implies => {}
        other => return err(format!("expected ':-' after head, found {other:?}")),
    }
    let body = lx.pos;
    let mut var_ids: HashMap<&str, VarId> = HashMap::with_capacity(opens + commas);
    let (mut args, mut atoms) = (
        Vec::with_capacity(opens + commas),
        Vec::with_capacity(opens),
    );
    let mut bytes = 0;
    loop {
        let start = args.len();
        let name = lx.atom(|v| {
            let next = var_ids.len() as VarId;
            args.push(*var_ids.entry(v).or_insert_with(|| {
                bytes += v.len();
                next
            }));
            Ok(())
        })?;
        let rel = relation(name, args.len() - start)?;
        atoms.push((rel, u32::try_from(args.len()).expect("under 2³² arguments")));
        match lx.next_token()? {
            Token::Comma => continue,
            Token::End => break,
            other => return err(format!("expected ',' or end of input, found {other:?}")),
        }
    }
    // Head variables must occur in the body (safety).
    let mut free = Vec::with_capacity(arity.min(PRESIZED));
    Lexer { input, pos: 0 }.atom(|h| {
        let v = var_ids.get(h).ok_or_else(|| ParseError {
            message: format!("head variable {h} does not occur in the body (unsafe query)"),
        })?;
        free.push(*v);
        Ok(())
    })?;
    let mut names = Names::with_capacity(var_ids.len(), bytes);
    let (mut lx, mut ids) = (Lexer { input, pos: body }, args.iter());
    loop {
        lx.atom(|v| {
            if *ids.next().expect("one id per variable read") as usize == names.len() {
                names.push(v);
            }
            Ok(())
        })?;
        if lx.next_token()? != Token::Comma {
            break;
        }
    }
    Ok((Arc::new(names), free, args, atoms))
}

/// Parses a rule-notation CQ, inferring the vocabulary from the body.
///
/// # Examples
///
/// ```
/// use cqapx_cq::parse_cq;
///
/// let q = parse_cq("Q() :- E(x, y), E(y, z), E(z, x)").unwrap();
/// assert!(q.is_boolean());
/// assert_eq!(q.atom_count(), 3);
/// assert_eq!(q.vocabulary().to_string(), "{E/2}");
/// ```
pub fn parse_cq(input: &str) -> Result<ConjunctiveQuery, ParseError> {
    let mut rels: Vec<(&str, usize)> = Vec::new();
    let parts = parse(input, |name, arity| {
        match rels.iter().position(|&(n, _)| n == name) {
            Some(i) if rels[i].1 == arity => Ok(RelId(i as u32)),
            Some(i) => err(format!(
                "relation {name} used with arities {} and {arity}",
                rels[i].1
            )),
            // `Vocabulary::new` takes no 0-ary symbol (it panics).
            None if arity == 0 => err(format!("relation {name} has no arguments")),
            None => {
                rels.push((name, arity));
                Ok(RelId(rels.len() as u32 - 1))
            }
        }
    })?;
    Ok(ConjunctiveQuery::from_parts(Vocabulary::new(rels), parts))
}

/// Parses against a fixed vocabulary (arities checked).
pub fn parse_cq_with_vocab(
    input: &str,
    vocab: &Vocabulary,
) -> Result<ConjunctiveQuery, ParseError> {
    let parts = parse(input, |name, arity| match vocab.rel(name) {
        None => err(format!("unknown relation {name}")),
        Some(r) if vocab.arity(r) != arity => err(format!(
            "relation {name} has arity {}, used with {arity} arguments",
            vocab.arity(r)
        )),
        Some(r) => Ok(r),
    })?;
    Ok(ConjunctiveQuery::from_parts(vocab.clone(), parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_triangle() {
        let q = parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap();
        assert_eq!(q.var_count(), 3);
        assert_eq!(q.atom_count(), 3);
        assert!(q.is_boolean());
    }

    #[test]
    fn parse_with_free_vars() {
        let q = parse_cq("Q(x, y) :- E(x, y), E(y, z)").unwrap();
        assert_eq!(q.free_vars(), &[0, 1]);
        assert_eq!(q.to_string(), "Q(x, y) :- E(x, y), E(y, z)");
    }

    #[test]
    fn parse_higher_arity() {
        let q = parse_cq("Q() :- R(x, u, y), R(y, v, z), R(z, w, x)").unwrap();
        assert_eq!(q.vocabulary().max_arity(), 3);
        assert_eq!(q.var_count(), 6);
    }

    #[test]
    fn parse_repeated_variables() {
        let q = parse_cq("Q(x) :- R(x, x, y)").unwrap();
        assert_eq!(q.atom(0).args, [0, 0, 1]);
    }

    #[test]
    fn unsafe_head_rejected() {
        assert!(parse_cq("Q(w) :- E(x, y)").is_err());
    }

    #[test]
    fn arity_conflict_rejected() {
        assert!(parse_cq("Q() :- R(x, y), R(x, y, z)").is_err());
    }

    /// No vocabulary holds a 0-ary symbol, so no structure, plan or
    /// scan ever meets one: the parser is where such an atom stops —
    /// with an error, not with `Vocabulary::new`'s panic.
    #[test]
    fn nullary_atom_is_an_error_not_a_panic() {
        assert!(parse_cq("Q() :- P()").is_err());
        assert!(parse_cq("Q(x) :- E(x, y), P()").is_err());
        assert!(parse_cq_with_vocab("Q() :- E()", &Vocabulary::graphs()).is_err());
    }

    #[test]
    fn vocab_mismatch_rejected() {
        let vocab = Vocabulary::graphs();
        assert!(parse_cq_with_vocab("Q() :- F(x, y)", &vocab).is_err());
        assert!(parse_cq_with_vocab("Q() :- E(x, y, z)", &vocab).is_err());
        assert!(parse_cq_with_vocab("Q() :- E(x, y)", &vocab).is_ok());
    }

    #[test]
    fn garbage_rejected() {
        assert!(parse_cq("Q() :-").is_err());
        assert!(parse_cq("Q()").is_err());
        assert!(parse_cq("Q() :- E(x,").is_err());
        assert!(parse_cq("Q() :- E(x y)").is_err());
        assert!(parse_cq("42").is_err());
    }

    #[test]
    fn primed_variables() {
        let q = parse_cq("Q() :- E(x, x'), E(x', x'')").unwrap();
        assert_eq!(q.var_count(), 3);
        assert_eq!(q.var_name(1), "x'");
    }

    #[test]
    fn whitespace_insensitive() {
        let a = parse_cq("Q(x):-E(x,y)").unwrap();
        let b = parse_cq("  Q( x )  :-  E( x , y )  ").unwrap();
        assert_eq!(a, b);
    }
}
