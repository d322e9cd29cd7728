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

use crate::ast::{Atom, ConjunctiveQuery, VarId};
use cqapx_structures::Vocabulary;
use std::collections::HashMap;
use std::fmt;

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

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    LParen,
    RParen,
    Comma,
    Implies,
    End,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    fn next_token(&mut self) -> Result<Token, ParseError> {
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if self.pos >= bytes.len() {
            return Ok(Token::End);
        }
        let c = bytes[self.pos];
        match c {
            b'(' => {
                self.pos += 1;
                Ok(Token::LParen)
            }
            b')' => {
                self.pos += 1;
                Ok(Token::RParen)
            }
            b',' => {
                self.pos += 1;
                Ok(Token::Comma)
            }
            b':' => {
                if self.input[self.pos..].starts_with(":-") {
                    self.pos += 2;
                    Ok(Token::Implies)
                } else {
                    err(format!("expected ':-' at byte {}", self.pos))
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self.pos < bytes.len()
                    && (bytes[self.pos].is_ascii_alphanumeric()
                        || bytes[self.pos] == b'_'
                        || bytes[self.pos] == b'\'')
                {
                    self.pos += 1;
                }
                Ok(Token::Ident(self.input[start..self.pos].to_string()))
            }
            other => err(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }
}

struct RawAtom {
    name: String,
    args: Vec<String>,
}

fn parse_raw(input: &str) -> Result<(Vec<String>, Vec<RawAtom>), ParseError> {
    let mut lx = Lexer::new(input);
    // Head.
    let head = parse_atom(&mut lx)?;
    match lx.next_token()? {
        Token::Implies => {}
        other => return err(format!("expected ':-' after head, found {other:?}")),
    }
    // Body.
    let mut atoms = Vec::new();
    loop {
        atoms.push(parse_atom(&mut lx)?);
        match lx.next_token()? {
            Token::Comma => continue,
            Token::End => break,
            other => return err(format!("expected ',' or end of input, found {other:?}")),
        }
    }
    Ok((head.args, atoms))
}

fn parse_atom(lx: &mut Lexer<'_>) -> Result<RawAtom, ParseError> {
    let name = match lx.next_token()? {
        Token::Ident(s) => s,
        other => return err(format!("expected a relation name, found {other:?}")),
    };
    match lx.next_token()? {
        Token::LParen => {}
        other => return err(format!("expected '(' after {name}, found {other:?}")),
    }
    let mut args = Vec::new();
    // Allow empty head Q().
    let save = lx.pos;
    match lx.next_token()? {
        Token::RParen => return Ok(RawAtom { name, args }),
        _ => lx.pos = save,
    }
    loop {
        match lx.next_token()? {
            Token::Ident(s) => args.push(s),
            other => return err(format!("expected a variable, found {other:?}")),
        }
        match lx.next_token()? {
            Token::Comma => continue,
            Token::RParen => break,
            other => return err(format!("expected ',' or ')', found {other:?}")),
        }
    }
    Ok(RawAtom { name, args })
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
    let (head, raw) = parse_raw(input)?;
    // Infer vocabulary.
    let mut rels: Vec<(String, usize)> = Vec::new();
    for a in &raw {
        match rels.iter().find(|(n, _)| *n == a.name) {
            Some((_, arity)) => {
                if *arity != a.args.len() {
                    return err(format!(
                        "relation {} used with arities {} and {}",
                        a.name,
                        arity,
                        a.args.len()
                    ));
                }
            }
            // `Vocabulary::new` takes no 0-ary symbol (it panics).
            None if a.args.is_empty() => {
                return err(format!("relation {} has no arguments", a.name));
            }
            None => rels.push((a.name.clone(), a.args.len())),
        }
    }
    let vocab = Vocabulary::new(rels);
    assemble(vocab, head, raw)
}

/// Parses against a fixed vocabulary (arities checked).
pub fn parse_cq_with_vocab(
    input: &str,
    vocab: &Vocabulary,
) -> Result<ConjunctiveQuery, ParseError> {
    let (head, raw) = parse_raw(input)?;
    for a in &raw {
        match vocab.rel(&a.name) {
            None => return err(format!("unknown relation {}", a.name)),
            Some(r) => {
                if vocab.arity(r) != a.args.len() {
                    return err(format!(
                        "relation {} has arity {}, used with {} arguments",
                        a.name,
                        vocab.arity(r),
                        a.args.len()
                    ));
                }
            }
        }
    }
    assemble(vocab.clone(), head, raw)
}

fn assemble(
    vocab: Vocabulary,
    head: Vec<String>,
    raw: Vec<RawAtom>,
) -> Result<ConjunctiveQuery, ParseError> {
    let mut var_ids: HashMap<String, VarId> = HashMap::new();
    let mut var_names: Vec<String> = Vec::new();
    let mut intern = |name: &str, var_ids: &mut HashMap<String, VarId>| -> VarId {
        *var_ids.entry(name.to_string()).or_insert_with(|| {
            let id = var_names.len() as VarId;
            var_names.push(name.to_string());
            id
        })
    };
    let mut atoms = Vec::with_capacity(raw.len());
    for a in &raw {
        let rel = vocab.rel(&a.name).expect("checked above");
        let args = a.args.iter().map(|s| intern(s, &mut var_ids)).collect();
        atoms.push(Atom { rel, args });
    }
    // Head variables must occur in the body (safety).
    let mut free = Vec::with_capacity(head.len());
    for h in &head {
        match var_ids.get(h) {
            Some(&v) => free.push(v),
            None => {
                return err(format!(
                    "head variable {h} does not occur in the body (unsafe query)"
                ))
            }
        }
    }
    if raw.is_empty() {
        return err("query body is empty");
    }
    Ok(ConjunctiveQuery::new(vocab, var_names, free, atoms))
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
        assert_eq!(q.atoms()[0].args, vec![0, 0, 1]);
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
