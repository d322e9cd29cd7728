//! The catalog: named registered databases (with relation statistics)
//! and prepared queries (with plan-relevant metadata).
//!
//! Registration is the expensive, once-per-object step: databases get
//! per-relation statistics scanned, queries get their [`QueryShape`]
//! computed (class membership, treewidth) and their one tree plan
//! compiled — over a join tree when acyclic, else over the
//! decomposition the treewidth search found, or over one bag per
//! connected component when it certified none. Execution then only
//! reads `Arc`-shared entries.

use cqapx_cq::eval::{MaterializationCache, TreePlan};
use cqapx_cq::{tableau_of, ConjunctiveQuery, QueryShape};
use cqapx_metrics::{Counter, Histogram};
use cqapx_structures::{Pointed, RelId, Structure};
use std::collections::HashMap;
use std::mem;
use std::sync::Arc;

/// Handle of a registered database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DbId(pub usize);

/// Handle of a prepared query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub usize);

/// Per-relation statistics of a registered database, the planner's cost
/// inputs.
#[derive(Debug, Clone)]
pub struct RelationStats {
    /// The relation.
    pub rel: RelId,
    /// Number of tuples.
    pub cardinality: usize,
    /// Distinct values per column (length = arity).
    pub distinct_per_column: Vec<usize>,
}

/// A database registered in the catalog.
#[derive(Debug)]
pub struct DatabaseEntry {
    /// Registration name.
    pub name: String,
    /// The structure itself.
    pub structure: Arc<Structure>,
    /// Per-relation statistics, in `RelId` order.
    pub stats: Vec<RelationStats>,
    /// Active-domain size.
    pub adom_size: usize,
    /// Materialized hyperedge relations of this database, shared by
    /// every prepared query and batch request that evaluates against it
    /// (see [`MaterializationCache`]). The cache lives and dies with
    /// this entry: re-registering a database name replaces the entry
    /// with one whose cache is empty, so no entry serves a stale
    /// snapshot, and the old cache is freed with the old entry's last
    /// holder.
    pub materialized: MaterializationCache,
    /// What the engine records about requests against this name. Unlike
    /// the cache, these outlive a re-registration: the replacing entry
    /// takes them over (`Catalog::insert_database`).
    pub(crate) counters: Arc<DbCounters>,
}

/// Per-database instruments, created once per registration name, so
/// recording a response needs neither a lookup nor a label.
#[derive(Debug, Default)]
pub(crate) struct DbCounters {
    /// Request latency in microseconds.
    pub latency: Histogram,
    /// Approximation-cache hits.
    pub approx_hits: Counter,
    /// Approximation-cache misses.
    pub approx_misses: Counter,
    /// Materialization-cache hits.
    pub mat_hits: Counter,
    /// Materialization-cache misses.
    pub mat_misses: Counter,
}

impl DbCounters {
    /// Zeroes every instrument.
    pub(crate) fn reset(&self) {
        self.latency.reset();
        for c in [
            &self.approx_hits,
            &self.approx_misses,
            &self.mat_hits,
            &self.mat_misses,
        ] {
            c.reset();
        }
    }
}

impl DatabaseEntry {
    /// Builds the entry of one snapshot: the statistics and the domain
    /// dictionary every evaluation encodes through, both from one scan
    /// (`compute_stats`), ready before the first request. This is the expensive half of a registration and
    /// needs no catalog: a caller that keeps the catalog behind a lock
    /// builds first and locks only for `Catalog::insert_database`.
    pub(crate) fn build(name: impl Into<String>, s: Structure) -> DatabaseEntry {
        let stats = compute_stats(&s);
        DatabaseEntry {
            name: name.into(),
            adom_size: s.domain_dict().len(),
            stats,
            structure: Arc::new(s),
            materialized: MaterializationCache::new(),
            counters: Arc::default(),
        }
    }

    /// The statistics of one relation.
    pub(crate) fn rel_stats(&self, rel: RelId) -> &RelationStats {
        &self.stats[rel.index()]
    }

    /// Total tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.stats.iter().map(|s| s.cardinality).sum()
    }
}

/// Per-relation statistics: cardinalities are read off the relations,
/// distinct counts come from [`Structure::distinct_per_column`] — one
/// sequential pass over the row-major tuple buffers with a
/// universe-sized bitset per column, which also leaves the structure's
/// domain dictionary built (the two share the pass).
pub(crate) fn compute_stats(s: &Structure) -> Vec<RelationStats> {
    s.vocabulary()
        .rel_ids()
        .zip(s.distinct_per_column())
        .map(|(rel, distinct_per_column)| RelationStats {
            rel,
            cardinality: s.tuples(rel).len(),
            distinct_per_column,
        })
        .collect()
}

/// Widest tree decomposition whose plan runs cached and unbudgeted.
/// Bag materializations cost up to `adom^(width+1)` rows: a plan within
/// the bound reads and writes the database's materialization cache and
/// ignores the deadline, like a join tree; a wider one runs uncached,
/// its joins charged to the request's step budget.
pub(crate) const MAX_DECOMPOSED_WIDTH: usize = 3;

/// A query prepared for serving.
#[derive(Debug)]
pub struct PreparedQuery {
    /// Preparation name.
    pub name: String,
    /// Plan-relevant metadata (class membership, sizes).
    pub shape: QueryShape,
    /// The prepared query itself.
    pub(crate) query: ConjunctiveQuery,
    /// The tableau `(T_Q, x̄)`, the approximation cache's key.
    pub(crate) tableau: Pointed,
    /// The compiled tree plan every request runs: over a join tree when
    /// the query is acyclic, else over a tree decomposition — the one
    /// the treewidth search found, or one bag per connected component
    /// when it certified none.
    pub tree: Arc<TreePlan>,
}

impl PreparedQuery {
    /// Prepares `q`: its shape and its tree plan. Like
    /// `DatabaseEntry::build`, the expensive half and no catalog needed:
    /// build first, lock only for `Catalog::insert_query`.
    pub fn build(name: impl Into<String>, q: ConjunctiveQuery) -> PreparedQuery {
        // One treewidth search: the width comes with the decomposition
        // it was read from, and a cyclic query's plan is compiled from it.
        let (shape, decomposition) = QueryShape::with_decomposition(&q);
        let tree = if shape.acyclic {
            // GYO on H(Q) decides acyclicity and the join tree comes from
            // the same reduction, so an acyclic shape must compile; fail
            // loudly here (prepare time) rather than deep inside a request.
            TreePlan::join_tree(&q).expect("an acyclic query has a join tree")
        } else {
            TreePlan::over_decomposition(&q, decomposition)
        };
        PreparedQuery {
            name: name.into(),
            shape,
            tableau: tableau_of(&q),
            query: q,
            tree: Arc::new(tree),
        }
    }
}

/// Named databases and prepared queries, one entry per name.
///
/// Re-registering a name replaces the entry behind its id. A request in
/// flight keeps the `Arc`s it resolved (its snapshot), so a replaced
/// entry is freed with its last holder.
#[derive(Debug, Default)]
pub struct Catalog {
    dbs: Vec<Arc<DatabaseEntry>>,
    queries: Vec<Arc<PreparedQuery>>,
    db_names: HashMap<String, DbId>,
    query_names: HashMap<String, QueryId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Puts a built entry behind its name: a push or a swap, the only
    /// part of a registration that needs the catalog. A name registered
    /// again keeps its id, and the new entry takes over its
    /// predecessor's counters. Returns the id and the replaced entry,
    /// for the caller to drop once it has let go of the catalog.
    pub(crate) fn insert_database(
        &mut self,
        mut entry: DatabaseEntry,
    ) -> (DbId, Option<Arc<DatabaseEntry>>) {
        if let Some(id) = self.database_by_name(&entry.name) {
            entry.counters = Arc::clone(&self.dbs[id.0].counters);
            return (id, Some(mem::replace(&mut self.dbs[id.0], Arc::new(entry))));
        }
        let id = DbId(self.dbs.len());
        self.db_names.insert(entry.name.clone(), id);
        self.dbs.push(Arc::new(entry));
        (id, None)
    }

    /// Puts a built query behind its name, as
    /// `Catalog::insert_database` does.
    pub(crate) fn insert_query(
        &mut self,
        entry: PreparedQuery,
    ) -> (QueryId, Option<Arc<PreparedQuery>>) {
        if let Some(id) = self.query_by_name(&entry.name) {
            return (
                id,
                Some(mem::replace(&mut self.queries[id.0], Arc::new(entry))),
            );
        }
        let id = QueryId(self.queries.len());
        self.query_names.insert(entry.name.clone(), id);
        self.queries.push(Arc::new(entry));
        (id, None)
    }

    /// The database behind an id.
    pub(crate) fn database(&self, id: DbId) -> Option<Arc<DatabaseEntry>> {
        self.dbs.get(id.0).cloned()
    }

    /// Iterates the registered databases in id order, one per name.
    pub(crate) fn databases(&self) -> impl Iterator<Item = &Arc<DatabaseEntry>> {
        self.dbs.iter()
    }

    /// The prepared query behind an id.
    pub(crate) fn query(&self, id: QueryId) -> Option<Arc<PreparedQuery>> {
        self.queries.get(id.0).cloned()
    }

    /// Looks a database up by name.
    pub(crate) fn database_by_name(&self, name: &str) -> Option<DbId> {
        self.db_names.get(name).copied()
    }

    /// Looks a prepared query up by name.
    pub(crate) fn query_by_name(&self, name: &str) -> Option<QueryId> {
        self.query_names.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqapx_cq::parse_cq;

    #[test]
    fn stats_cardinality_and_distinct() {
        let s = Structure::digraph(4, &[(0, 1), (0, 2), (1, 2)]);
        let stats = compute_stats(&s);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].cardinality, 3);
        assert_eq!(stats[0].distinct_per_column, vec![2, 2]);
    }

    /// Registration against the reference definitions, on universes at
    /// the bitset word edges: a unary and an empty relation beside the
    /// binary one, gaps, and the element `universe − 1` present or not.
    #[test]
    fn entry_stats_and_dictionary_match_reference() {
        use cqapx_structures::{StructureBuilder, Vocabulary};
        use std::collections::HashSet;
        for universe in [63usize, 64, 65] {
            for top in [false, true] {
                let v = Vocabulary::new(vec![("U", 1), ("E", 2), ("Z", 3)]);
                let (u, e) = (v.rel("U").unwrap(), v.rel("E").unwrap());
                let mut b = StructureBuilder::new(v.clone(), universe);
                for i in (0..universe as u32 - 1).step_by(7) {
                    b.add(e, &[i, (i * 5 + 3) % 60]);
                    b.add(e, &[i, 2]);
                }
                b.add(u, &[9]);
                if top {
                    b.add(u, &[universe as u32 - 1]);
                }
                let entry = DatabaseEntry::build("d", b.finish());
                let s = &entry.structure;
                let adom: HashSet<u32> = v
                    .rel_ids()
                    .flat_map(|r| s.flat_tuples(r))
                    .copied()
                    .collect();
                assert_eq!(entry.adom_size, adom.len());
                assert_eq!(s.domain_dict().len(), entry.adom_size);
                assert_eq!(entry.stats.len(), 3);
                for (rel, stats) in v.rel_ids().zip(&entry.stats) {
                    assert_eq!(stats.rel, rel);
                    assert_eq!(stats.cardinality, s.tuples(rel).len());
                    let naive: Vec<usize> = (0..v.arity(rel))
                        .map(|c| s.tuples(rel).map(|t| t[c]).collect::<HashSet<_>>().len())
                        .collect();
                    assert_eq!(stats.distinct_per_column, naive, "universe {universe}");
                }
            }
        }
    }

    #[test]
    fn prepare_compiles_acyclic_plans() {
        let mut c = Catalog::new();
        let path = c
            .insert_query(PreparedQuery::build(
                "path",
                parse_cq("Q(x) :- E(x,y), E(y,z)").unwrap(),
            ))
            .0;
        let tri = c
            .insert_query(PreparedQuery::build(
                "tri",
                parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap(),
            ))
            .0;
        let width = |id| c.query(id).unwrap().tree.width();
        assert_eq!(width(path), None, "a join tree");
        assert_eq!(width(tri), Some(2), "not a join tree");
        assert!(c.query(tri).unwrap().shape.treewidth == 2);
        assert_eq!(c.query_by_name("path"), Some(path));
    }

    #[test]
    fn prepare_compiles_decomposed_plans_up_to_width_limit() {
        let mut c = Catalog::new();
        let tri = c
            .insert_query(PreparedQuery::build(
                "tri",
                parse_cq("Q() :- E(x,y), E(y,z), E(z,x)").unwrap(),
            ))
            .0;
        assert_eq!(c.query(tri).unwrap().tree.width(), Some(2));
        // K5 has treewidth 4 > MAX_DECOMPOSED_WIDTH: a plan all the same,
        // one bag over its five variables.
        let k5 =
            "Q() :- E(a,b), E(a,c), E(a,d), E(a,e), E(b,c), E(b,d), E(b,e), E(c,d), E(c,e), E(d,e)";
        let wide = c
            .insert_query(PreparedQuery::build("k5", parse_cq(k5).unwrap()))
            .0;
        let wide = c.query(wide).unwrap();
        assert_eq!((wide.shape.treewidth, wide.tree.width()), (4, Some(4)));
        assert!(wide.tree.width() > Some(MAX_DECOMPOSED_WIDTH));
    }

    #[test]
    fn reregistering_replaces_the_entry_behind_its_id() {
        let mut c = Catalog::new();
        let (a, none) =
            c.insert_database(DatabaseEntry::build("g", Structure::digraph(2, &[(0, 1)])));
        let before = c.database(a).unwrap();
        let (b, old) = c.insert_database(DatabaseEntry::build(
            "g",
            Structure::digraph(3, &[(0, 1), (1, 2)]),
        ));
        assert!(none.is_none() && Arc::ptr_eq(&old.unwrap(), &before));
        assert_eq!((a, c.database_by_name("g")), (b, Some(b)));
        assert_eq!(c.databases().count(), 1);
        assert_eq!(before.total_tuples(), 1);
        assert_eq!(c.database(a).unwrap().total_tuples(), 2);
        assert!(Arc::ptr_eq(
            &before.counters,
            &c.database(a).unwrap().counters
        ));
    }
}
