//! Seeded inputs and the benchmark's own oracle.
//!
//! Nothing here calls into the crates under test: graphs come from a
//! local SplitMix64 stream, queries are plain data rendered to rule
//! text for the engine's parser, and the oracle evaluates them with a
//! left-to-right join over packed rows that shares no code with the
//! engine's evaluators.

/// SplitMix64: small, seedable, and good enough to draw graphs from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A database of binary relations over the universe `0..universe`.
#[derive(Debug, Clone)]
pub struct Db {
    pub universe: usize,
    /// `(relation name, edges)`, in vocabulary order.
    pub rels: Vec<(&'static str, Vec<(u32, u32)>)>,
}

/// `degree` distinct edges from every vertex of `sources` to random
/// vertices of `targets` other than itself. Out-degrees are exact, so
/// edge and wedge counts are the same for every seed and only the
/// wiring changes.
pub fn regular_edges(
    sources: std::ops::Range<usize>,
    targets: std::ops::Range<usize>,
    degree: usize,
    rng: &mut Rng,
) -> Vec<(u32, u32)> {
    assert!(targets.len() > degree, "too few targets for the degree");
    let mut edges = Vec::with_capacity(sources.len() * degree);
    for u in sources {
        let first = edges.len();
        while edges.len() - first < degree {
            let v = targets.start + rng.below(targets.len());
            if v != u && !edges[first..].contains(&(u as u32, v as u32)) {
                edges.push((u as u32, v as u32));
            }
        }
    }
    edges
}

/// A DAG of `layers` equal layers over `n` vertices: every vertex but
/// those of the last layer has `degree` edges into the next layer, so
/// the longest walk has `layers - 1` edges.
pub fn layered_dag(n: usize, layers: usize, degree: usize, rng: &mut Rng) -> Vec<(u32, u32)> {
    let width = n / layers;
    (0..layers - 1)
        .flat_map(|l| {
            let next = (l + 1) * width..(l + 2) * width;
            regular_edges(l * width..(l + 1) * width, next, degree, rng)
        })
        .collect()
}

/// A conjunctive query over binary relations, as data: variables are
/// `0..vars`, atoms are `(relation index, source, target)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub vars: usize,
    pub head: Vec<usize>,
    pub atoms: Vec<(usize, usize, usize)>,
}

impl Query {
    /// Parses the benchmark's own compact notation: `"x,z: E x y, E y z"`
    /// (head before the colon, one `REL src dst` triple per atom).
    /// Relation names index into `rels`.
    pub fn parse(spec: &str, rels: &[&str]) -> Query {
        let (head, body) = spec.split_once(':').expect("query spec has a colon");
        fn var<'a>(name: &'a str, names: &mut Vec<&'a str>) -> usize {
            names.iter().position(|n| *n == name).unwrap_or_else(|| {
                names.push(name);
                names.len() - 1
            })
        }
        let mut names: Vec<&str> = Vec::new();
        let mut atoms = Vec::new();
        for atom in body.split(',') {
            let parts: Vec<&str> = atom.split_whitespace().collect();
            let rel = rels
                .iter()
                .position(|r| *r == parts[0])
                .expect("known relation");
            let atom = (rel, var(parts[1], &mut names), var(parts[2], &mut names));
            atoms.push(atom);
        }
        let head = head
            .split(',')
            .map(str::trim)
            .filter(|h| !h.is_empty())
            .map(|h| {
                names
                    .iter()
                    .position(|n| *n == h)
                    .expect("head variable occurs in the body")
            })
            .collect();
        Query {
            vars: names.len(),
            head,
            atoms,
        }
    }

    /// Rule text for the engine's parser, variable `i` printed as
    /// `{prefix}{i}`.
    pub fn text(&self, rels: &[&str], prefix: &str) -> String {
        let var = |v: usize| format!("{prefix}{v}");
        let head: Vec<String> = self.head.iter().map(|&v| var(v)).collect();
        let body: Vec<String> = self
            .atoms
            .iter()
            .map(|&(r, s, t)| format!("{}({}, {})", rels[r], var(s), var(t)))
            .collect();
        format!("Q({}) :- {}", head.join(", "), body.join(", "))
    }

    /// The same query with its atoms reordered and its variables
    /// renumbered by `rng`: isomorphic, so answers and approximation
    /// counts are unchanged.
    pub fn scrambled(&self, rng: &mut Rng) -> Query {
        let mut perm: Vec<usize> = (0..self.vars).collect();
        rng.shuffle(&mut perm);
        let mut atoms: Vec<_> = self
            .atoms
            .iter()
            .map(|&(r, s, t)| (r, perm[s], perm[t]))
            .collect();
        rng.shuffle(&mut atoms);
        Query {
            vars: self.vars,
            head: self.head.iter().map(|&v| perm[v]).collect(),
            atoms,
        }
    }

    /// A connected random graph query on `vars` variables with `atoms`
    /// distinct loop-free atoms over relation 0: a random spanning tree
    /// plus random extra edges (cyclic whenever `atoms >= vars`).
    pub fn random(vars: usize, atoms: usize, rng: &mut Rng) -> Query {
        let mut set: Vec<(usize, usize, usize)> = Vec::new();
        for v in 1..vars {
            let u = rng.below(v);
            set.push(if rng.below(2) == 0 {
                (0, u, v)
            } else {
                (0, v, u)
            });
        }
        while set.len() < atoms {
            let (s, t) = (rng.below(vars), rng.below(vars));
            if s != t && !set.contains(&(0, s, t)) && !set.contains(&(0, t, s)) {
                set.push((0, s, t));
            }
        }
        Query {
            vars,
            head: Vec::new(),
            atoms: set,
        }
    }
}

/// Row count and order-independent digest of an answer set: the
/// wrapping sum of one 64-bit hash per row. The oracle's and the
/// engine's must be equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    #[inline]
    pub fn add(&mut self, row: &[u32]) {
        let mut h = 0x243F_6A88_85A3_08D3u64 ^ row.len() as u64;
        for &x in row {
            h = mix64(h ^ x as u64);
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(mix64(h));
    }
}

/// Evaluates `q` on `db` and feeds every distinct answer, in head
/// order, to `emit`.
///
/// Atoms are joined one by one over rows packed into one `u128`;
/// after each atom the variables no later atom (or the head) needs are
/// projected away and the rows deduplicated, so path-shaped queries
/// stay linear in the database. A query with a head is evaluated once
/// per value of its first head variable, which keeps the rows of one
/// pass — and the benchmark's own footprint — small.
pub fn oracle(q: &Query, db: &Db, mut emit: impl FnMut(&[u32])) {
    let bits = (usize::BITS - db.universe.max(2).leading_zeros()) as usize;
    let mask = (1u128 << bits) - 1;
    let mut out = vec![vec![Vec::new(); db.universe]; db.rels.len()];
    let mut inn = out.clone();
    for (r, (_, edges)) in db.rels.iter().enumerate() {
        for &(u, v) in edges {
            out[r][u as usize].push(v);
            inn[r][v as usize].push(u);
        }
    }
    // Join order: always the atom with the most variables bound already
    // (the earliest on ties), so cycles close as soon as they can and
    // intermediate rows stay few whatever order the query was written in.
    let mut atoms: Vec<(usize, usize, usize)> = Vec::new();
    let mut rest = q.atoms.clone();
    let mut known: Vec<usize> = q.head.first().copied().into_iter().collect();
    while !rest.is_empty() {
        let bound_vars = |a: &(usize, usize, usize)| {
            usize::from(known.contains(&a.1)) + usize::from(known.contains(&a.2))
        };
        let best = (0..rest.len())
            .max_by_key(|&i| (bound_vars(&rest[i]), std::cmp::Reverse(i)))
            .expect("nonempty");
        let atom = rest.remove(best);
        known.extend([atom.1, atom.2]);
        atoms.push(atom);
    }
    // Variables atom i or anything after it (the head included) needs.
    let needed_from = |i: usize| -> Vec<usize> {
        let mut vars: Vec<usize> = q.head.clone();
        for &(_, s, t) in &atoms[i..] {
            vars.extend([s, t]);
        }
        vars.sort_unstable();
        vars.dedup();
        vars
    };
    let pivots: Vec<Option<u32>> = match q.head.first() {
        Some(_) => (0..db.universe as u32).map(Some).collect(),
        None => vec![None],
    };
    let mut row_buf: Vec<u32> = Vec::new();
    for pivot in pivots {
        let mut bound: Vec<usize> = Vec::new(); // variables held by each row, ascending
        let mut rows: Vec<u128> = vec![0];
        if let Some(p) = pivot {
            bound.push(q.head[0]);
            rows[0] = p as u128;
        }
        for (i, &(r, s, t)) in atoms.iter().enumerate() {
            let mut next_bound = bound.clone();
            next_bound.extend([s, t]);
            next_bound.sort_unstable();
            next_bound.dedup();
            let keep: Vec<usize> = needed_from(i + 1)
                .into_iter()
                .filter(|v| next_bound.contains(v))
                .collect();
            assert!(keep.len() * bits <= 128, "oracle row does not fit 128 bits");
            let pos = |v: usize| bound.iter().position(|b| *b == v);
            let (ps, pt) = (pos(s), pos(t));
            let get = |row: u128, p: usize| ((row >> (p * bits)) & mask) as u32;
            let mut next: Vec<u128> = Vec::new();
            let mut push = |row: u128, vs: u32, vt: u32| {
                let mut packed = 0u128;
                for (k, &v) in keep.iter().enumerate() {
                    let val = if v == s {
                        vs
                    } else if v == t {
                        vt
                    } else {
                        get(row, pos(v).expect("kept variable is bound"))
                    };
                    packed |= (val as u128) << (k * bits);
                }
                next.push(packed);
            };
            for &row in &rows {
                match (ps, pt) {
                    (Some(a), Some(b)) => {
                        let (vs, vt) = (get(row, a), get(row, b));
                        if out[r][vs as usize].contains(&vt) {
                            push(row, vs, vt);
                        }
                    }
                    (Some(a), None) => {
                        let vs = get(row, a);
                        for &vt in &out[r][vs as usize] {
                            push(row, vs, vt);
                        }
                    }
                    (None, Some(b)) => {
                        let vt = get(row, b);
                        for &vs in &inn[r][vt as usize] {
                            push(row, vs, vt);
                        }
                    }
                    (None, None) => {
                        for &(vs, vt) in &db.rels[r].1 {
                            if s != t || vs == vt {
                                push(row, vs, vt);
                            }
                        }
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            rows = next;
            bound = keep;
            if rows.is_empty() {
                break;
            }
        }
        // `bound` is now the distinct head variables, ascending; rows of
        // different pivots differ in the first head variable.
        for &row in &rows {
            row_buf.clear();
            for &h in &q.head {
                let p = bound.iter().position(|b| *b == h).expect("head is bound");
                row_buf.push(((row >> (p * bits)) & mask) as u32);
            }
            emit(&row_buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected(q: &Query, db: &Db) -> Digest {
        let mut seen = Digest::default();
        oracle(q, db, |row| seen.add(row));
        seen
    }

    fn rows(q: &Query, db: &Db) -> Vec<Vec<u32>> {
        let mut v = Vec::new();
        oracle(q, db, |r| v.push(r.to_vec()));
        v.sort();
        v
    }

    #[test]
    fn oracle_on_hand_made_graphs() {
        // 0 -> 1 -> 2 -> 0 and 2 -> 3.
        let db = Db {
            universe: 4,
            rels: vec![("E", vec![(0, 1), (1, 2), (2, 0), (2, 3)])],
        };
        let two_hop = Query::parse("x,z: E x y, E y z", &["E"]);
        assert_eq!(
            rows(&two_hop, &db),
            vec![vec![0, 2], vec![1, 0], vec![1, 3], vec![2, 1]]
        );
        let tri = Query::parse("x: E x y, E y z, E z x", &["E"]);
        assert_eq!(rows(&tri, &db), vec![vec![0], vec![1], vec![2]]);
        let path4 = Query::parse(": E a b, E b c, E c d, E d e", &["E"]);
        assert_eq!(rows(&path4, &db), vec![Vec::<u32>::new()]);
        let loops = Query::parse(": E a a", &["E"]);
        assert!(rows(&loops, &db).is_empty());
        let dup = Query::parse("x,x,y: E x y, E y z", &["E"]);
        assert_eq!(rows(&dup, &db).len(), 3);
        assert_eq!(rows(&dup, &db)[0], vec![0, 0, 1]);
    }

    #[test]
    fn scrambling_keeps_the_answers() {
        let mut rng = Rng::new(3);
        let db = Db {
            universe: 40,
            rels: vec![("E", regular_edges(0..40, 0..40, 3, &mut rng))],
        };
        let q = Query::parse("a: E a b, E b c, E c a, E c d", &["E"]);
        let s = q.scrambled(&mut rng);
        assert_ne!(q, s);
        assert_eq!(expected(&q, &db), expected(&s, &db));
    }

    #[test]
    fn generators_repeat_for_a_seed_and_keep_their_degrees() {
        let a = regular_edges(0..500, 0..500, 4, &mut Rng::new(9));
        assert_eq!(a, regular_edges(0..500, 0..500, 4, &mut Rng::new(9)));
        assert_ne!(a, regular_edges(0..500, 0..500, 4, &mut Rng::new(10)));
        assert_eq!(a.len(), 2000);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 2000);
        assert!(a.iter().all(|&(u, v)| u != v));
        let dag = layered_dag(900, 9, 4, &mut Rng::new(1));
        assert_eq!(dag.len(), 800 * 4);
        assert!(dag.iter().all(|&(u, v)| v / 100 == u / 100 + 1));
    }
}
