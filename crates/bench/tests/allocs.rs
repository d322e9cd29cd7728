//! Allocation guards: what evaluation and the engine ask the allocator
//! for, counted on the calling thread.
//!
//! A cold bag build allocates per plan operator and per join level,
//! never per tuple or per binding: the same cyclic query over ten times
//! the edges must call the allocator exactly as often. A bag whose last
//! variable has one part is counted before it is written, so its build
//! requests little more than the bytes it reads and returns. The join
//! phase is held to the same kind of bound: a tree node with two
//! children is one multiway join that materializes nothing between its
//! inputs and its projected output, and what it only has to find — a
//! Boolean plan's witness — it stops at; so does the existence call
//! that decides a Boolean root's multi-column edge. Every join and
//! projection of the benchmark's plans, run on its own, calls the
//! allocator no more often than the hash-index join it replaced. A
//! one-column head read off the live-value sweep copies no cached row:
//! it asks for little more than its answers, and calls the allocator no
//! more often than the kernel path. The answer boundary adopts a plan's
//! head-ordered output without a call, and a warm two-atom request
//! calls the allocator only in the ops that materialize, project and
//! join: no semijoin copies its cached root.
//!
//! A warm request allocates alike whether or not the data has a
//! dangling tuple, whatever the engine's thread count and whether or not
//! the engine records metrics. Preparing the introduction's `Q2` and
//! approximating it into `TW(1)` stay under fixed allocator-call counts,
//! on a fresh thread nearly as few as on a warm one, and its cold
//! certain-answers request is pinned phase by phase. A
//! compiled plan allocates per plan, not per atom — the same calls for
//! `C6` as for `C12`, and for a 4-path's `TreePlan::join_tree` as for a
//! 16-path's, its hypergraph, GYO and bottom-up order included, as an
//! `AC` check calls as often for the ternary ring of 16 as of 8 — and a
//! warm cache hit borrows its key, allocating nothing;
//! parsing a query, and reading a tableau back as a query, allocate per
//! query, never per atom, variable or token, and its isomorphism
//! signature per structure, never per element.
//! A snapshot keeps each relation in one buffer: cloning and dropping
//! it, or superseding it under its name, calls the allocator as often at
//! twice the tuples. The hom kernel allocates per search: compiling a
//! source and indexing a target call the allocator as often at eight
//! times the atoms, indexing as often for four relations as for one, a
//! warm `exists` calls it not at all, and it stops at the first
//! homomorphism without assembling it.
//!
//! Its own test binary because it installs a counting
//! `#[global_allocator]`. The counters are thread-local, so the
//! harness's other threads cannot move them, and evaluation runs every
//! kernel on the calling thread.

use cqapx_bench::workloads::{lcg, nine_layer_dag, regular_digraph};
use cqapx_cq::eval::ir::compile_tree;
use cqapx_cq::eval::{
    Answers, MatCacheStats, MaterializationCache, NaivePlan, NodeSpec, Op, PlanIr, TreePlan,
};
use cqapx_cq::{parse_cq, parse_cq_with_vocab};
use cqapx_engine::{Engine, EngineConfig, EvalMode, MetricsLevel, PlanKind, Request};
use cqapx_structures::{HomSolver, Structure, Vocabulary};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread (`alloc`, `alloc_zeroed` and
    /// `realloc` alike — a growing buffer counts every time it grows).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread handed back (`dealloc`).
    static FREES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note(bytes: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// const-initialized thread-local `Cell`s and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller vouches; `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result, the allocator calls this thread made while it ran, and
/// the bytes they asked for.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let calls = CALLS.with(Cell::get) - calls;
    (out, calls, BYTES.with(Cell::get) - bytes)
}

/// `f`'s result and the allocator calls this thread made while it ran,
/// frees included.
fn counted_with_frees<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let frees = FREES.with(Cell::get);
    let (out, calls, _) = counted(f);
    (out, calls + FREES.with(Cell::get) - frees)
}

const UNIVERSE: u32 = 5000;
/// Vertices `0..PLANTED` carry disjoint directed triangles.
const PLANTED: u32 = 30;

/// `edges` edges over a fixed universe: ten planted triangles, the rest
/// a pseudo-random DAG (`u < v`) on the other vertices. A DAG has no
/// directed cycle, so the triangle query has the same 30 answers at
/// every size — output buffers grow alike — while the join's bindings
/// (wedges `x → y → z`) grow with the edge count.
fn graph(edges: usize) -> Structure {
    let mut list: Vec<(u32, u32)> = (0..PLANTED).map(|v| (v, v - v % 3 + (v + 1) % 3)).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || PLANTED + lcg(&mut state) as u32 % (UNIVERSE - PLANTED);
    let mut seen = std::collections::HashSet::new();
    while list.len() < edges {
        let (a, b) = (next(), next());
        if a != b && seen.insert((a.min(b), a.max(b))) {
            list.push((a.min(b), a.max(b)));
        }
    }
    Structure::digraph(UNIVERSE as usize, &list)
}

/// Allocator calls of one cold evaluation: fresh cache, dictionary
/// built beforehand (as registration leaves it).
fn cold_eval_calls(plan: &TreePlan, d: &Structure) -> (u64, usize) {
    d.distinct_per_column();
    let cache = MaterializationCache::new();
    let ((answers, stats), calls, _) = counted(|| plan.ir().answers(d, Some(&cache)));
    assert!(stats.misses > 0, "a cold run materializes");
    assert_eq!(stats.wcoj_bag_builds, 1, "the triangle is one multiway bag");
    (calls, answers.len())
}

#[test]
fn cold_triangle_allocations_do_not_grow_with_the_graph() {
    let q = parse_cq("Q(x) :- E(x,y), E(y,z), E(z,x)").unwrap();
    let plan = TreePlan::within_width(&q, 2).unwrap();
    let (small, big) = (graph(2_000), graph(20_000));
    let (small_calls, small_answers) = cold_eval_calls(&plan, &small);
    let (big_calls, big_answers) = cold_eval_calls(&plan, &big);
    assert_eq!((small_answers, big_answers), (30, 30));
    assert_eq!(
        small_calls, big_calls,
        "allocator calls must not depend on the number of edges"
    );
    assert!(
        small_calls < 200,
        "{small_calls} allocator calls for one bag"
    );
}

/// The two-path bag `E(a,b) ⋈ E(b,c)` over a 4-out-regular graph: 16
/// rows out per vertex, each three codes wide. The kernel sums the last
/// level's run lengths first and allocates the result once, so the
/// whole build — both part scans, the offsets arrays, the plan, the
/// rows — asks for at most 1.25 × the bytes of its parts and its
/// result. (Grown by doubling, an 80k-row result alone requests 2–4 ×
/// its size.)
#[test]
fn cold_two_path_bag_requests_little_more_than_it_returns() {
    let n = 5000u32;
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| [1, 7, 61, 331].map(|step| (u, (u * 3 + step) % n)))
        .collect();
    let d = Structure::digraph(n as usize, &edges);
    d.distinct_per_column();
    let q = parse_cq("Q(a, b, c) :- E(a, b), E(b, c)").unwrap();
    let atoms: Vec<_> = q.atoms().collect();
    let node = NodeSpec {
        atoms: &atoms,
        label: None,
    };
    let plan = compile_tree(&[node], &[None], &[0], &[]);
    let source = plan.materialize_sources().next().expect("one node");
    let mut stats = MatCacheStats::default();
    let (bag, _, requested) = counted(|| plan.materialize(source, &d, None, None, &mut stats));
    assert_eq!(stats.wcoj_bag_builds, 1);
    assert_eq!(bag.len(), 16 * n as usize, "every wedge, once");
    let parts = 2 * edges.len() * 2 * std::mem::size_of::<u32>();
    // What the build returns: rows and schema, no bitmap word table.
    let returned = bag.len() * bag.arity() * std::mem::size_of::<u32>();
    let held = (returned + std::mem::size_of_val(bag.schema()) + parts) as u64;
    assert!(
        requested * 4 <= held * 5,
        "{requested} bytes requested to build {held}"
    );
}

const C6_HEAD: &str = "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,a)";

/// `Q(a) :- C₆` cold on 2000 × 4: everything the run asks the allocator
/// for — part scans, bags, sort scratch, partials, tries — is at most
/// 2.5 × the bytes of the relations its operators return (measured:
/// 4.5 MB for 2.5 MB, 1.8 ×). The root joins `E(b,c)`, the
/// bag over `{a,b,f}` and the 3-path partial `(c,f)`; joined two at a
/// time that is a 4-column, 128,000-row intermediate and a key index
/// over the partial, and the same run asked for 14.5 MB — 3.2 × what
/// its operators returned even with the intermediate counted among
/// them.
#[test]
fn cold_six_cycle_head_requests_a_small_multiple_of_what_its_ops_return() {
    let d = regular_digraph(2000, 4, 0xC6);
    d.distinct_per_column();
    let plan = TreePlan::within_width(&parse_cq(C6_HEAD).unwrap(), 2).unwrap();
    let wide = |op: &&Op| matches!(op, Op::MultiJoin { inputs, .. } if inputs.len() > 2);
    assert_eq!(plan.ir().ops().iter().filter(wide).count(), 1);
    let cache = MaterializationCache::new();
    let ((alive, slots, _), _, requested) = counted(|| plan.ir().run_slots(&d, Some(&cache), None));
    assert!(alive, "the graph has 6-cycles");
    let returned: usize = (slots.iter().flatten())
        .map(|r| r.len() * r.arity() * std::mem::size_of::<u32>())
        .sum();
    assert!(
        requested * 2 <= returned as u64 * 5,
        "{requested} bytes requested for {returned} returned"
    );
}

/// Cursor advances per row the root reads or writes, head-`a` plan
/// (measured: 4.6 — the 3-path runs are 20 long here, short enough to
/// be merged with the 4 in-neighbours step by step).
const C6_ADVANCES_PER_ROW: u64 = 6;

/// On a graph where every vertex lies on a directed 6-cycle (the ring
/// `u → u + 200` six times round, plus three more edges per vertex)
/// the Boolean `C₆` plan's root stops at its first witness: it spends
/// at most a tenth of the cursor advances of the same plan's root with
/// head `a`, which must find a witness per vertex — and that one stays
/// linear in the rows the root reads (its operands) and writes (the
/// answers). Each root is run on its own, over the slots a warm run of
/// its plan left, so neither the bag builds nor the joins below the
/// root count.
#[test]
fn boolean_six_cycle_stops_at_the_first_witness() {
    let n = 1200u32;
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| [1, 7, 61, 200].map(|step| (u, (u + step) % n)))
        .collect();
    let d = Structure::digraph(n as usize, &edges);
    let cache = MaterializationCache::new();
    let head = TreePlan::within_width(&parse_cq(C6_HEAD).unwrap(), 2).unwrap();
    let boolean = C6_HEAD.replace("Q(a)", "Q()");
    let boolean = TreePlan::within_width(&parse_cq(&boolean).unwrap(), 2).unwrap();
    // The root's advances, and the slots it read and wrote.
    let root = |plan: &TreePlan| {
        let ir = plan.ir();
        let (alive, mut slots, _) = ir.run_slots(&d, Some(&cache), None);
        assert!(alive, "the graph has 6-cycles");
        let last = ir.ops().len() - 1;
        let (alive, stats) = ir.run_ops(last..last + 1, &mut slots, &d, Some(&cache));
        assert!(alive);
        (stats.cursor_advances, slots)
    };
    let (with_head, slots) = root(&head);
    let rows = |s: usize| slots[s].as_ref().map_or(0, |r| r.len()) as u64;
    let Some(&Op::MultiJoin { dst, inputs, .. }) = head.ir().ops().last() else {
        panic!("the root of the path of four bags joins");
    };
    let inputs = head.ir().words(inputs);
    assert_eq!(inputs.len(), 3, "the root has two children");
    assert_eq!(rows(dst), u64::from(n), "every vertex answers");
    let touched = inputs.iter().map(|&s| rows(s as usize)).sum::<u64>() + rows(dst);
    assert!(
        with_head <= C6_ADVANCES_PER_ROW * touched,
        "{with_head} advances for {touched} rows"
    );
    let (without, _) = root(&boolean);
    assert!(
        without * 10 <= with_head,
        "{without} advances to find one witness, {with_head} to find one per vertex"
    );
}

const C4: &str = "Q() :- E(a,b), E(b,c), E(c,d), E(d,a)";
const TWO_HOP: &str = "Q(x,z) :- E(x,y), E(y,z)";
const TRIANGLE: &str = "Q(x) :- E(x,y), E(y,z), E(z,x)";
const THREE_HOP_HEAD: &str = "Q(x) :- E(x,y), E(y,z), E(z,w)";
const PATH8: &str =
    "Q() :- E(a0,a1), E(a1,a2), E(a2,a3), E(a3,a4), E(a4,a5), E(a5,a6), E(a6,a7), E(a7,a8)";
const STAR8: &str = "Q() :- E(c,a1), E(c,a2), E(c,a3), E(c,a4), E(c,a5), E(c,a6), E(c,a7), E(c,a8)";

/// The Boolean `C₄` plan's root edge is one existence call over the two
/// bags (80,000 rows each on 5000 × 4, as the benchmark builds them).
/// Warm, so the bag builds count for nothing: with a witness the call
/// spends fewer cursor advances than 1 % of the rows of its two parts;
/// on a DAG, with none, it reads each part a small number of times —
/// at most 3 advances per row.
#[test]
fn boolean_four_cycle_root_is_one_existence_call() {
    let plan = TreePlan::within_width(&parse_cq(C4).unwrap(), 2).unwrap();
    let [.., Op::MultiJoin { inputs, vars, .. }, Op::AssertNonempty { .. }] = plan.ir().ops()
    else {
        panic!("the Boolean C4 root ends in its existence call");
    };
    assert!(vars.is_empty());
    for (d, witness) in [
        (regular_digraph(5000, 4, 0xC4), true),
        (nine_layer_dag(5000, 0xC4), false),
    ] {
        let cache = MaterializationCache::new();
        plan.ir().run_boolean(&d, Some(&cache), None);
        let (alive, slots, stats) = plan.ir().run_slots(&d, Some(&cache), None);
        assert_eq!((alive, stats.misses), (witness, 0));
        let parts: u64 = (plan.ir().words(*inputs).iter())
            .map(|&s| slots[s as usize].as_ref().map_or(0, |r| r.len()) as u64)
            .sum();
        let advances = stats.cursor_advances;
        assert!(parts > 100_000, "{parts} rows in the two bags");
        if witness {
            assert!(
                advances * 100 < parts,
                "{advances} advances over {parts} rows"
            );
        } else {
            assert!(
                advances <= 3 * parts,
                "{advances} advances over {parts} rows"
            );
        }
    }
}

/// Allocator calls of op `pc` of `ir` run alone on a warm cache, over
/// the slots a full run left.
fn op_calls(ir: &PlanIr, pc: usize, d: &Structure) -> u64 {
    let cache = MaterializationCache::new();
    let (alive, mut slots, _) = ir.run_slots(d, Some(&cache), None);
    assert!(alive, "the graph answers");
    let ((alive, _), calls, _) = counted(|| ir.run_ops(pc..pc + 1, &mut slots, d, Some(&cache)));
    assert!(alive);
    calls
}

/// The joins and projections of the benchmark's plans, each run on its
/// own over the inputs it reads in its plan, call the allocator no more
/// often than the hash-index join and its unit-relation projection did
/// for the same op (the counts written here, measured with them on the
/// same inputs): `two_hop`'s and `wedge3`'s root joins on a 3000 × 8
/// graph, `c6_head`'s one-child join of its bag with the 3-path partial
/// `(c, f)` and its projection `(d, e, f) → (d, f)` on 5000 × 4, and
/// `three_hop_head`'s projection of the root onto `x`.
#[test]
fn warm_joins_and_projections_allocate_no_more_than_the_hash_path() {
    let wide = regular_digraph(3000, 8, 0x2B);
    let narrow = regular_digraph(5000, 4, 0xC6);
    let acyclic = |rule: &str| TreePlan::join_tree(&parse_cq(rule).unwrap()).unwrap();
    let c6 = TreePlan::within_width(&parse_cq(C6_HEAD).unwrap(), 2).unwrap();
    let at = |ir: &PlanIr, pick: &dyn Fn(&Op) -> bool| {
        let mut found = (ir.ops().iter().enumerate()).filter(|(_, op)| pick(op));
        let (pc, _) = found.next().expect("the plan has the op");
        assert!(found.next().is_none(), "the op is unique");
        pc
    };
    let root = |ir: &PlanIr| ir.ops().len() - 1;
    let two_hop = acyclic("Q(x, z) :- E(x,y), E(y,z)");
    let wedge3 = acyclic("Q(x, y, z) :- E(x,y), E(y,z)");
    let three_hop = acyclic(THREE_HOP_HEAD);
    let c6_join = at(
        c6.ir(),
        &|op| matches!(op, Op::MultiJoin { inputs, .. } if inputs.len() == 2),
    );
    let c6_project = at(
        c6.ir(),
        &|op| matches!(op, Op::Project { vars, .. } if vars.len() == 2),
    );
    for (name, ir, pc, d, parent) in [
        ("two_hop join", two_hop.ir(), root(two_hop.ir()), &wide, 9),
        ("wedge3 join", wedge3.ir(), root(wedge3.ir()), &wide, 9),
        ("c6_head (c,f) join", c6.ir(), c6_join, &narrow, 10),
        ("c6_head (d,e,f) → (d,f)", c6.ir(), c6_project, &narrow, 4),
        (
            "three_hop_head projection",
            three_hop.ir(),
            root(three_hop.ir()),
            &narrow,
            3,
        ),
    ] {
        let calls = op_calls(ir, pc, d);
        assert!(
            calls <= parent,
            "{name}: {calls} allocator calls, {parent} before"
        );
    }
}

/// `three_hop_head` warm on a nine-layer DAG, where the first sweep
/// removes rows from both inner slots: its join phase is one
/// projection of the root onto `x`, read off the live-value sweep, so
/// no cached row is copied. The request calls the allocator as often at
/// 10,000 as at 20,000 vertices, and asks for less than twice the
/// answer buffer plus three bitmap word tables. Filtering the shared
/// slots by the kernels, as the full run does, copies them: about 20
/// times the answer buffer.
#[test]
fn warm_one_column_head_copies_no_cached_row() {
    let q = parse_cq(THREE_HOP_HEAD).unwrap();
    let plan = TreePlan::join_tree(&q).unwrap();
    let counts = [10_000, 20_000].map(|n| {
        let d = nine_layer_dag(n, 0x3B);
        let cache = MaterializationCache::new();
        let (cold, _) = plan.ir().answers(&d, Some(&cache));
        let ((warm, stats), calls, requested) = counted(|| plan.ir().answers(&d, Some(&cache)));
        assert_eq!((warm == cold, stats.misses), (true, 0));
        // `x` starts a three-edge walk in the six lowest layers.
        assert_eq!(warm.len(), (0..n).filter(|v| v % 9 < 6).count());
        let answers = (warm.len() * std::mem::size_of::<u32>()) as u64;
        let table = (d.domain_dict().len().div_ceil(64) * 8) as u64;
        assert!(
            requested < 2 * answers + 3 * table,
            "{requested} bytes requested for {answers} bytes of answers"
        );
        calls
    });
    assert_eq!(counts[0], counts[1], "allocator calls at two sizes");
}

/// A one-column head read off the live-value sweep calls the allocator
/// no more often than the kernel path (`run_slots`, then the answer
/// boundary) on the same warm cache: fewer times for `three_hop_head`
/// on a nine-layer DAG, whose semijoins there copy cached rows, and as
/// often for `triangle_members` on disjoint directed triangles — one
/// bag, no semijoin, dense enough for a column bitmap — where the
/// sweep's liveness flags sit on the stack.
#[test]
fn swept_one_column_head_allocates_no_more_than_the_kernel_path() {
    let dag = nine_layer_dag(10_000, 0x3B);
    let triangles: Vec<(u32, u32)> = (0..600).map(|v| (v, v - v % 3 + (v + 1) % 3)).collect();
    let triangles = Structure::digraph(600, &triangles);
    let (three_hop, triangle) = (
        parse_cq(THREE_HOP_HEAD).unwrap(),
        parse_cq(TRIANGLE).unwrap(),
    );
    let three_hop_plan = TreePlan::join_tree(&three_hop).unwrap();
    let triangle_plan = TreePlan::within_width(&triangle, 2).unwrap();
    for (q, ir, d, fewer) in [
        (&three_hop, three_hop_plan.ir(), &dag, true),
        (&triangle, triangle_plan.ir(), &triangles, false),
    ] {
        let head = q.free_vars();
        let cache = MaterializationCache::new();
        ir.answers(d, Some(&cache));
        let ((swept, _), swept_calls, _) = counted(|| ir.answers(d, Some(&cache)));
        let (kernel, kernel_calls, _) = counted(|| {
            let (alive, mut slots, mut stats) = ir.run_slots(d, Some(&cache), None);
            let out = ir
                .ops()
                .last()
                .and_then(Op::dst)
                .and_then(|s| slots[s].take());
            let out = out.filter(|_| alive).expect("the graph answers");
            Answers::from_relation(out, head, d.domain_dict(), &mut stats)
        });
        assert!(swept == kernel && !swept.is_empty(), "{q}");
        let calls = (swept_calls, kernel_calls);
        let holds = if fewer {
            calls.0 < calls.1
        } else {
            calls.0 == calls.1
        };
        assert!(
            holds,
            "{q}: {calls:?} allocator calls read off the sweep and by the kernels"
        );
    }
}

/// On a graph where every vertex has an out-edge, a warm Boolean
/// eight-edge path is rooted at its first atom, so each atom hands its
/// parent column 0. A child's cached bitmap of that column holds every
/// vertex, so it contains its parent's second column: the sweep records
/// no filter, scans no row and allocates no word table. The request
/// calls the allocator exactly as often as a warm eight-edge star, whose
/// children hand the root its own first column. (Each node's cache hit
/// makes one call, so the two queries have as many atoms.)
#[test]
fn warm_boolean_path_reads_no_row_where_every_vertex_has_an_out_edge() {
    let engine = Engine::new(EngineConfig::default());
    let db = engine.register_database("g", regular_digraph(2_000, 4, 0x5EED));
    let calls = [PATH8, STAR8].map(|text| {
        let req = Request::new(engine.prepare_query(text, parse_cq(text).unwrap()), db);
        engine.execute(&req);
        engine.execute(&req);
        let (warm, calls, _) = counted(|| engine.execute(&req));
        assert_eq!(warm.plan, PlanKind::Yannakakis, "{text}");
        assert!(!warm.answers.is_empty(), "{text} holds");
        calls
    });
    assert_eq!(
        calls[0], calls[1],
        "allocator calls of a warm 8-path vs a warm 8-star"
    );
}

/// A warm two-atom request allocates the same number of times whether
/// or not the database has a dangling tuple: the one semijoin left in
/// the plan costs the same when it removes a row as when it removes
/// none, and the second sweep — which would rebuild the bitmaps of
/// whatever the first one touched — is the join. (`cqbench` draws a
/// new graph per seed, about one in three without an in-degree-0
/// vertex; its allocation counts must not tell them apart.)
#[test]
fn warm_wedge_allocations_ignore_a_dangling_tuple() {
    let mut edges: Vec<(u32, u32)> = (0..400u32)
        .flat_map(|u| [(u, (u * 7 + 3) % 400), (u, (u + 1) % 400)])
        .collect();
    let full = Structure::digraph(402, &edges);
    // Vertex 400 gets an edge out and none in: `E(y,z)` loses one row.
    edges.push((400, 0));
    let dangling = Structure::digraph(402, &edges);
    for text in ["Q(x,y,z) :- E(x,y), E(y,z)", "Q(x,z) :- E(x,y), E(y,z)"] {
        let q = parse_cq(text).unwrap();
        let plan = TreePlan::join_tree(&q).unwrap();
        let counts = [&full, &dangling].map(|d| {
            let cache = MaterializationCache::new();
            let warm = plan.ir().answers(d, Some(&cache));
            assert_eq!(warm.0, NaivePlan::compile(q.clone()).eval(d), "{text}");
            let (again, count, _) = counted(|| plan.ir().answers(d, Some(&cache)));
            assert_eq!(again.0, warm.0, "{text}");
            count
        });
        assert_eq!(counts[0], counts[1], "{text}: full vs dangling");
    }
}

/// The answer boundary takes a plan's output as it comes — columns in
/// head order, rows canonical — as the answer's buffer: reading a warm
/// `two_hop` run out, codes decoded in place, calls the allocator not
/// once.
#[test]
fn boundary_adopts_a_head_ordered_relation_without_allocating() {
    let d = regular_digraph(2_000, 4, 0x5EED);
    let q = parse_cq(TWO_HOP).unwrap();
    let plan = TreePlan::join_tree(&q).unwrap();
    let cache = MaterializationCache::new();
    let (want, _) = plan.ir().answers(&d, Some(&cache));
    let (out, _) = plan.ir().run(&d, Some(&cache), None);
    let out = out.expect("the graph has two-edge walks");
    assert_eq!(out.schema(), q.free_vars());
    let (got, calls, _) = counted(|| {
        Answers::from_relation(
            out,
            q.free_vars(),
            d.domain_dict(),
            &mut MatCacheStats::default(),
        )
    });
    assert_eq!((got == want, calls), (true, 0));
}

/// A warm `two_hop` calls the allocator as often on a graph where a
/// vertex has out-edges and no in-edge as on one where every vertex has
/// an in-edge, and on both exactly as often as its materializations,
/// projection and join run one at a time, plus its slot table: its
/// root's only child is joined into it, and that join drops the root
/// rows whose `y` has no in-edge, so no semijoin copies the cached root
/// to drop them, and the answer boundary adopts the join's buffer.
#[test]
fn warm_two_hop_allocations_ignore_a_vertex_with_no_in_edge() {
    let n = 1_000u32;
    let mut edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (1..=4).map(move |k| (u, (u * 31 + k * 379) % n)))
        .collect();
    let full = Structure::digraph(n as usize + 1, &edges);
    // Vertex `n` points at four vertices and nothing points at it.
    edges.extend((1..=4).map(|k| (n, k * 7)));
    let sourced = Structure::digraph(n as usize + 1, &edges);
    let plan = TreePlan::join_tree(&parse_cq(TWO_HOP).unwrap()).unwrap();
    let ir = plan.ir();
    let counts = [&full, &sourced].map(|d| {
        let cache = MaterializationCache::new();
        let (cold, _) = ir.answers(d, Some(&cache));
        let ((warm, stats), calls, _) = counted(|| ir.answers(d, Some(&cache)));
        assert_eq!((warm == cold, stats.misses), (true, 0));
        let ops = (ir.ops().iter().enumerate())
            .filter(|(_, op)| !matches!(op, Op::Semijoin { .. }))
            .map(|(pc, _)| op_calls(ir, pc, d));
        assert_eq!(
            calls,
            ops.sum::<u64>() + 1,
            "allocator calls of the request vs its ops"
        );
        calls
    });
    assert_eq!(
        counts[0], counts[1],
        "allocator calls: every vertex has an in-edge vs one has none"
    );
}

/// One request runs start to finish on the thread that executes it,
/// whatever the engine's thread count, and recording it allocates
/// nothing: engines at 1 and 2 threads, each at `MetricsLevel::None`
/// and at `Counters`, serve the same warm requests — `two_hop`'s free
/// join on a 3,000-vertex graph of out-degree 8, `three_hop_head`'s
/// projection read off the live-value sweep, a Boolean C4 on the
/// decomposed tier, and a certain-only triangle on the sandwich tier
/// (an approximation-cache hit) — with byte-identical answers and the
/// same number of allocator calls on the calling thread.
#[test]
fn one_request_allocates_the_same_at_any_thread_count() {
    let n = 3_000u32;
    let mut edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (1..=8).map(move |k| (u, (u * 31 + k * 379) % n)))
        .collect();
    // Loops, so the triangle's approximations have certain answers.
    edges.extend((0..n).step_by(100).map(|u| (u, u)));
    let d = Structure::digraph(n as usize, &edges);
    // The naive budgets send only the triangle to the sandwich.
    let cells = [
        (TWO_HOP, EvalMode::Exact, 1e18, PlanKind::Yannakakis),
        (THREE_HOP_HEAD, EvalMode::Exact, 1e18, PlanKind::Yannakakis),
        (C4, EvalMode::Exact, 1e18, PlanKind::Decomposed),
        (TRIANGLE, EvalMode::CertainOnly, 0.0, PlanKind::Sandwich),
    ];
    let engines = [
        (1, MetricsLevel::Counters),
        (2, MetricsLevel::Counters),
        (1, MetricsLevel::None),
        (2, MetricsLevel::None),
    ];
    let served = engines.map(|(threads, metrics)| {
        cells.map(|(text, mode, naive_cost_budget, tier)| {
            let engine = Engine::new(EngineConfig {
                threads,
                metrics,
                naive_cost_budget,
                ..EngineConfig::default()
            });
            let db = engine.register_database("g", d.clone());
            let req = Request {
                mode,
                ..Request::new(engine.prepare_query(text, parse_cq(text).unwrap()), db)
            };
            // A miss, then a first hit: the first hit of the test makes
            // two one-off allocator calls that no later hit repeats.
            engine.execute(&req);
            engine.execute(&req);
            let (warm, count, _) = counted(|| engine.execute(&req));
            let what = format!("{text} at {threads} thread(s), {metrics}");
            assert_eq!(warm.plan, tier, "{what}");
            assert!(!warm.answers.is_empty(), "{what}");
            (warm.answers, count)
        })
    });
    for (i, (text, ..)) in cells.iter().enumerate() {
        let (first, first_allocs) = &served[0][i];
        for ((threads, metrics), cells) in engines.iter().zip(&served).skip(1) {
            let (answers, allocs) = &cells[i];
            assert!(
                answers == first,
                "{text}: answers differ at {threads} thread(s), {metrics}"
            );
            assert_eq!(
                allocs, first_allocs,
                "{text}: allocator calls at {threads} thread(s), {metrics} vs 1 thread, counters"
            );
        }
    }
}

/// The introduction's `Q2`, which `cqbench`'s `q2_tw1` cell prepares
/// and approximates into `TW(1)`.
const Q2: &str = "Q() :- E(x,y), E(y,z), E(z,u), E(x1,y1), E(y1,z1), E(z1,u1), E(x,z1), E(y,u1)";

/// Preparing `Q2` calls the allocator at most 25 times (24 in a
/// release build, which skips the decomposition's validation): the
/// shape's treewidth search hands its decomposition to the decomposed
/// plan, which no second search rebuilds, the bags' heights and the
/// rooting share one scratch buffer, the bags' rows become the plan's
/// labels, the compile writes its sources straight into the buffers the
/// plan keeps, and a single-part source keeps its key only in its part;
/// no hom solver is compiled. The plan is the one a search at that
/// width compiles to.
#[test]
fn preparing_q2_allocates_no_more_than_it_did() {
    use cqapx_engine::PreparedQuery;
    let q2 = parse_cq(Q2).unwrap();
    let copy = q2.clone();
    let (prepared, prepare, _) = counted(|| PreparedQuery::build("q2", copy));
    let plan = &prepared.tree;
    let searched = TreePlan::within_width(&q2, prepared.shape.treewidth).unwrap();
    assert_eq!(format!("{:?}", plan.ir()), format!("{:?}", searched.ir()));
    assert!(prepare <= 25, "{prepare} allocator calls to prepare Q2");
}

/// A tree decomposition keeps its bags as bit rows in one buffer, and
/// the search that finds it keeps its order and candidates in one
/// scratch buffer: `min_width_decomposition`, `QueryShape::with_decomposition`
/// and `PreparedQuery::build` (the shape, the plan compiled from that
/// decomposition and the tableau) each call the allocator exactly as
/// often for the directed `C32` as for the `C8`, validation in a debug
/// build included.
#[test]
fn preparing_allocates_per_decomposition_not_per_bag() {
    use cqapx_cq::{query_graph, QueryShape};
    use cqapx_engine::PreparedQuery;
    use cqapx_graphs::min_width_decomposition;
    let [small, big] = [8, 32].map(|n| {
        let q = parse_cq(&cycle_text(n)).unwrap();
        let g = query_graph(&q);
        let (td, search, _) = counted(|| min_width_decomposition(&g));
        assert_eq!(td.map(|td| td.width()), Some(2), "C{n}");
        let shape = counted(|| QueryShape::with_decomposition(&q)).1;
        let (prepared, build, _) = counted(|| PreparedQuery::build("c", q));
        assert_eq!(
            prepared.tree.width(),
            Some(2),
            "C{n} prepares a decomposed plan"
        );
        [search, shape, build]
    });
    assert_eq!(
        small, big,
        "(search, shape, build) allocator calls, C8 vs C32"
    );
}

/// One approximation search of `Q2` into `TW(1)`, on a fresh thread,
/// calls the allocator at most 61 times for its 57 walk nodes, 3
/// candidates and one result: the walk keeps its prefix graphs and the
/// lists of kept leaves alive at each depth in one scratch, and the
/// quotient fingerprints it has seen in one arena; each core is computed
/// by restriction on one compiled source, its probes' witnesses written
/// into one buffer, and a candidate that is its own core is kept as
/// offered; a compile is one allocator call, and an index allocates per
/// structure, never per relation. The hom solver's thread-local scratch
/// is a few flat buffers, each sized to its bound when a run takes it,
/// so the same search on the now warm thread calls the allocator at
/// most 8 times less (measured: 61 fresh, 55 warm). The antichain keeps
/// its members and their solvers in two vectors and hands the members
/// out as they lie: no shrinking reallocation whatever the two types'
/// sizes, the second vector's first allocation in its place.
#[test]
fn approximating_q2_allocates_per_candidate_not_per_node() {
    use cqapx_core::{all_approximations_tableaux, ApproxOptions, TwK};
    let t = cqapx_cq::tableau_of(&parse_cq(Q2).unwrap());
    let [fresh, warm] = std::thread::spawn(move || {
        let options = ApproxOptions::default();
        [(); 2].map(|()| {
            let ((approximations, meta), search, _) =
                counted(|| all_approximations_tableaux(&t, &TwK(1), &options));
            assert_eq!(approximations.len(), 1);
            assert_eq!((meta.nodes, meta.candidates), (57, 3));
            search
        })
    })
    .join()
    .unwrap();
    assert!(fresh <= 61, "{fresh} allocator calls for the search");
    assert!(
        fresh <= warm + 8,
        "{fresh} allocator calls on a fresh thread, {warm} on a warm one"
    );
}

/// An approximation-cache key holds the class as a value and the
/// tableau's signature, its canonical words, boxed: on a thread that has
/// labelled before, building one calls the allocator once, for the
/// words, and labelling an isomorphic twin, which is what a hit looks up
/// by, calls it not at all.
#[test]
fn a_cache_key_allocates_only_its_signature() {
    use cqapx_core::{ApproxCacheKey, ApproxOptions, TwK};
    use cqapx_structures::iso::canonical_form;
    let t = cqapx_cq::tableau_of(&parse_cq(Q2).unwrap());
    let twin = cqapx_cq::tableau_of(&parse_cq(Q2_TWIN).unwrap());
    let options = ApproxOptions::default();
    drop(canonical_form(&t));
    let (key, calls, _) = counted(|| ApproxCacheKey::new(&t, &TwK(1), &options));
    assert_eq!(calls, 1, "allocator calls to build a key");
    let (same, calls, _) = counted(|| canonical_form(&twin).words() == &key.words[..]);
    assert_eq!((same, calls), (true, 0), "(equal words, allocator calls)");
}

/// The rule text of the directed path of `n` edges, with the head `x0`.
fn path_text(n: u32) -> String {
    let atoms: Vec<String> = (0..n).map(|i| format!("E(x{i}, x{})", i + 1)).collect();
    format!("Q(x0) :- {}", atoms.join(", "))
}

/// A compiled plan allocates per plan, not per atom: every schema, key,
/// binder list and operand list is a span of one word buffer, and the
/// parts and binders live in one buffer each. Compiling the
/// `TreePlan` of the directed `C6` and of the `C12` from their
/// decompositions, and the plan `TreePlan::join_tree` compiles over the
/// join tree of a 4-path and of a 16-path, calls the allocator exactly
/// as often at both sizes.
#[test]
fn compiling_a_plan_allocates_per_plan_not_per_atom() {
    use cqapx_cq::{query_graph, Atom};
    use cqapx_graphs::treewidth::treewidth_at_most;
    let cycles = [6, 12].map(|n| {
        let q = parse_cq(&cycle_text(n)).unwrap();
        let td = treewidth_at_most(&query_graph(&q), 2).unwrap();
        counted(|| TreePlan::from_decomposition(&q, td)).1
    });
    assert_eq!(cycles[0], cycles[1], "allocator calls to compile C6 vs C12");
    let paths = [4, 16].map(|n: usize| {
        let q = parse_cq(&path_text(n as u32)).unwrap();
        let atoms: Vec<Atom> = q.atoms().collect();
        let nodes: Vec<NodeSpec> = (atoms.chunks(1))
            .map(|atoms| NodeSpec { atoms, label: None })
            .collect();
        // Rooted at the head's atom: each atom hangs off the one before.
        let parent: Vec<Option<usize>> = (0..n).map(|i| i.checked_sub(1)).collect();
        let order: Vec<usize> = (0..n).rev().collect();
        counted(|| compile_tree(&nodes, &parent, &order, q.free_vars())).1
    });
    assert_eq!(
        paths[0], paths[1],
        "allocator calls to compile a 4-path vs a 16-path"
    );
}

/// `TreePlan::join_tree` finds its join tree on one hypergraph's bit
/// rows, reduces it in one scratch buffer and orders it with no stack:
/// compiling the directed 4-path and 16-path calls the allocator exactly
/// as often.
#[test]
fn a_join_tree_plan_allocates_per_plan_not_per_atom() {
    let [small, large] = [4, 16].map(|n| {
        let q = parse_cq(&path_text(n)).unwrap();
        counted(|| TreePlan::join_tree(&q).unwrap()).1
    });
    assert_eq!(small, large, "allocator calls for a 4-path vs a 16-path");
}

/// An `AC` check builds the tableau's hypergraph in one buffer and runs
/// GYO in one more: the ternary rings `R(vᵢ, vᵢ₊₁, vᵢ₊₃)` of 8 and of 16
/// call the allocator exactly as often.
#[test]
fn an_acyclicity_check_allocates_per_query_not_per_atom() {
    use cqapx_core::Acyclic;
    use cqapx_structures::{Pointed, StructureBuilder};
    let [small, large] = [8, 16].map(|n: u32| {
        let vocab = Vocabulary::new(vec![("R", 3)]);
        let r = vocab.rel("R").unwrap();
        let mut b = StructureBuilder::new(vocab, n as usize);
        for i in 0..n {
            b.add(r, &[i, (i + 1) % n, (i + 3) % n]);
        }
        let t = Pointed::boolean(b.finish());
        let (acyclic, calls, _) = counted(|| Acyclic.contains_tableau(&t));
        assert!(!acyclic, "the ring of {n} is cyclic");
        calls
    });
    assert_eq!(small, large, "allocator calls for the ring of 8 vs 16");
}

/// A cache lookup borrows the key's words from the plan: a warm hit
/// calls the allocator not at all.
#[test]
fn a_warm_cache_hit_allocates_nothing() {
    let plan = TreePlan::join_tree(&parse_cq(TWO_HOP).unwrap()).unwrap();
    let d = regular_digraph(100, 2, 0x2B);
    let cache = MaterializationCache::new();
    plan.ir().answers(&d, Some(&cache));
    for source in plan.ir().materialize_sources() {
        let key = plan.ir().words(source.key);
        let ((_, hit), calls, _) =
            counted(|| cache.get_or_materialize(key, || unreachable!("warm")));
        assert_eq!((hit, calls), (true, 0));
    }
}
/// [`q2_cold_certain_request_allocates_by_phase_as_pinned`]'s counts:
/// parse, prepare, search, compile, miss, hit. A release build skips
/// the decomposition's validation when preparing, and the check of the
/// hit against the cached canonical tableau (7 calls in debug).
const PINNED: [u64; 6] = match cfg!(debug_assertions) {
    true => [10, 29, 61, 14, 114, 15],
    false => [10, 28, 61, 14, 114, 8],
};

/// The introduction's `Q2` renamed, its atoms reordered: isomorphic.
const Q2_TWIN: &str =
    "Q() :- E(b1,c1), E(a,b), E(c1,d1), E(b,c), E(a1,b1), E(c,d), E(a,c1), E(b,d1)";

/// `Q2`'s cold certain-answers request into `TW(1)` on a fresh engine,
/// phase by phase, pinned to the allocator call: parsing `Q2`,
/// preparing it, the approximation search, compiling the plans of its
/// approximations, the request that misses the approximation cache
/// (search and compile included), and a renamed copy's request, an
/// isomorphic hit. A change that moves a phase commits its new count
/// here, and says so: this is the ledger of allocations by layer.
#[test]
fn q2_cold_certain_request_allocates_by_phase_as_pinned() {
    use cqapx_core::{all_approximations_tableaux, ApproxOptions, ApproxReport, TwK};
    let engine = Engine::new(EngineConfig {
        threads: 1,
        naive_cost_budget: 0.0,
        approx_class: TwK(1),
        ..EngineConfig::default()
    });
    let d = Structure::digraph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 2)]);
    let db = engine.register_database("g", d);
    let (q2, parse, _) = counted(|| parse_cq(Q2).unwrap());
    let t = cqapx_cq::tableau_of(&q2);
    let (id, prepare, _) = counted(|| engine.prepare_query("q2", q2));
    let options = ApproxOptions::default();
    let ((tableaux, meta), search, _) =
        counted(|| all_approximations_tableaux(&t, &TwK(1), &options));
    let report = ApproxReport::from_tableaux(tableaux, meta);
    let compile_one = |q: &cqapx_cq::ConjunctiveQuery| match TreePlan::join_tree(q) {
        Some(plan) => PlanIr::from(plan),
        None => TreePlan::within_width(q, 1).unwrap().into(),
    };
    let (_, compile, _) = counted(|| {
        report
            .approximations
            .iter()
            .map(compile_one)
            .collect::<Vec<_>>()
    });
    let request = |id| Request {
        mode: EvalMode::CertainOnly,
        ..Request::new(id, db)
    };
    let (miss, cold, _) = counted(|| engine.execute(&request(id)));
    assert_eq!(
        (miss.plan, miss.cache_hit),
        (PlanKind::Sandwich, Some(false))
    );
    let twin = engine.prepare_query("twin", parse_cq(Q2_TWIN).unwrap());
    let (hit, iso_hit, _) = counted(|| engine.execute(&request(twin)));
    assert_eq!(
        (hit.cache_hit, hit.answers == miss.answers),
        (Some(true), true)
    );
    let phases = [parse, prepare, search, compile, cold, iso_hit];
    assert_eq!(
        phases, PINNED,
        "(parse, prepare, search, compile, miss, hit)"
    );
}

/// The rule text of the directed cycle on `n` vertices.
fn cycle_text(n: u32) -> String {
    let atoms: Vec<String> = (0..n)
        .map(|i| format!("E(x{i}, x{})", (i + 1) % n))
        .collect();
    format!("Q() :- {}", atoms.join(", "))
}

/// A parse borrows its tokens from the input and interns each variable
/// by the borrowed name, straight into the query's buffers — its
/// arguments, its atoms' ends and one name table — each sized from the
/// input before the pass: against the graph vocabulary, `Q2` calls the
/// allocator at most 8 times, and the directed `C64`'s text exactly as
/// often as the `C8`'s.
#[test]
fn parsing_allocates_per_query_not_per_atom_or_variable() {
    let graphs = Vocabulary::graphs();
    let (_, calls, _) = counted(|| parse_cq_with_vocab(Q2, &graphs).unwrap());
    assert!(calls <= 8, "{calls} allocator calls to parse Q2");
    let [small, big] = [8, 64].map(|n| {
        let text = cycle_text(n);
        counted(|| parse_cq_with_vocab(&text, &graphs).unwrap()).1
    });
    assert_eq!(small, big, "allocator calls to parse C8 vs C64");
}

/// Reading a tableau back as a query writes its arguments from the flat
/// tuples into one buffer and, for a tableau with no names, its `x{e}`
/// names into one table: the directed cycles on 5 and on 50 elements
/// call the allocator exactly as often.
#[test]
fn reading_a_tableau_back_allocates_per_query_not_per_atom() {
    use cqapx_cq::query_from_tableau;
    use cqapx_structures::Pointed;
    let [small, big] = [5, 50].map(|n| {
        let t = Pointed::boolean(directed_cycle(n));
        let (q, calls, _) = counted(|| query_from_tableau(&t));
        assert_eq!(
            (q.var_name(n - 1), q.atom_count()),
            (format!("x{}", n - 1).as_str(), n as usize)
        );
        calls
    });
    assert_eq!(small, big, "allocator calls for 5 vs 50 elements");
}

/// The canonical labelling runs in one flat scratch, which the thread
/// lends it: labelling the directed `C8` on a fresh thread and then the
/// `C64`, which grows the scratch, call the allocator equally often.
#[test]
fn signing_allocates_per_structure_not_per_element() {
    use cqapx_structures::{iso::canonical_form, Pointed};
    let [small, big] = [8, 64].map(|n| {
        let p = Pointed::boolean(directed_cycle(n));
        counted(|| drop(canonical_form(&p))).1
    });
    assert_eq!(small, big, "allocator calls to label C8 vs C64");
}

/// A snapshot stores each relation as one buffer, so cloning one and
/// dropping the clone calls the allocator as often at 20,000 edges as at
/// 10,000: per relation, never per tuple.
#[test]
fn cloning_a_snapshot_allocates_per_relation_not_per_tuple() {
    let calls = [10_000, 20_000].map(|edges| {
        let d = graph(edges);
        counted_with_frees(|| drop(d.clone())).1
    });
    assert_eq!(
        calls[0], calls[1],
        "allocator calls to clone and drop 10k vs 20k edges"
    );
}

/// Re-registering a name frees the superseded snapshot inside the call
/// (with its last holder), so replacing a 20,000-edge snapshot calls the
/// allocator no more often than replacing a 10,000-edge one.
#[test]
fn re_registering_a_bigger_snapshot_allocates_no_more() {
    let calls = [10_000, 20_000].map(|edges| {
        let engine = Engine::new(EngineConfig::default());
        let db = engine.register_database("g", graph(edges));
        let fresh = graph(edges);
        let (id, calls) = counted_with_frees(|| engine.register_database("g", fresh));
        assert_eq!(id, db, "a name keeps its id");
        calls
    });
    assert!(
        calls[1] <= calls[0],
        "{} allocator calls to re-register 20k edges, {} for 10k",
        calls[1],
        calls[0]
    );
}

/// The directed cycle on `n` vertices.
fn directed_cycle(n: u32) -> Structure {
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Structure::digraph(n as usize, &edges)
}

/// A search that §5 decides (`cqapx_core::trichotomy`) allocates per
/// query, not per atom: one buffer holds the tableau's graph, and the
/// one approximation is built directly. Into `TW(1)`, the directed `C8`
/// and `C64` (bipartite, unbalanced: `Q^triv₂`) and `C9` and `C63` (not
/// bipartite: `Q^triv`); into `TW(2)`, `K4↔` and `K6↔` (not
/// 3-colourable: `Q^triv`). Each pair calls the allocator equally often,
/// at most 12 times, result included (four: the graph's buffer, the
/// structure's two lists and the result's).
#[test]
fn a_decided_search_allocates_per_query_not_per_atom() {
    use cqapx_core::{all_approximations_tableaux, ApproxOptions, TwK};
    use cqapx_structures::Pointed;
    let complete = |m: u32| {
        let edges = (0..m).flat_map(|a| (0..m).filter(move |&b| b != a).map(move |b| (a, b)));
        Structure::digraph(m as usize, &edges.collect::<Vec<_>>())
    };
    let pairs = [
        (directed_cycle(8), directed_cycle(64), 1),
        (directed_cycle(9), directed_cycle(63), 1),
        (complete(4), complete(6), 2),
    ];
    let options = ApproxOptions::default();
    for (small, large, k) in pairs {
        let calls = [small, large].map(|s| {
            let t = Pointed::boolean(s);
            let ((got, meta), calls, _) =
                counted(|| all_approximations_tableaux(&t, &TwK(k), &options));
            assert_eq!((got.len(), meta.nodes), (1, 0), "decided");
            calls
        });
        assert_eq!(
            calls[0], calls[1],
            "TW({k}): allocator calls, small vs large"
        );
        assert!(
            calls[0] <= 12,
            "{} allocator calls for a decided search",
            calls[0]
        );
    }
}

/// A compiled source and a target index each keep their lists in flat
/// buffers: compiling and indexing the directed `C64` call the allocator
/// exactly as often as the directed `C8`.
#[test]
fn compiling_and_indexing_allocate_per_structure_not_per_atom() {
    let [small, big] = [8, 64].map(|n| {
        let c = directed_cycle(n);
        let compile = counted(|| HomSolver::compile(&c)).1;
        let index = counted(|| {
            c.index();
        })
        .1;
        (compile, index)
    });
    assert_eq!(small, big, "(compile, index) allocator calls, C8 vs C64");
}

/// A compiled source keeps its constraints, tuples, repetition patterns
/// and incidence lists as spans of one word buffer: compiling the
/// directed `C8`, the `C64` and a structure of three relations (arities
/// 1–3) calls the allocator once each.
#[test]
fn compiling_a_solver_is_one_allocator_call() {
    use cqapx_structures::StructureBuilder;
    let vocab = Vocabulary::new(vec![("A", 1), ("B", 2), ("C", 3)]);
    let mut b = StructureBuilder::new(vocab.clone(), 4);
    b.add(vocab.rel("A").unwrap(), &[0]);
    b.add(vocab.rel("B").unwrap(), &[0, 1]);
    b.add(vocab.rel("B").unwrap(), &[2, 2]);
    b.add(vocab.rel("C").unwrap(), &[1, 2, 3]);
    let three = b.finish();
    let calls = [directed_cycle(8), directed_cycle(64), three].map(|s| {
        let (solver, calls, _) = counted(|| HomSolver::compile(&s));
        drop(solver);
        calls
    });
    assert_eq!(
        calls,
        [1, 1, 1],
        "allocator calls to compile C8, C64, three relations"
    );
}

/// A target's index keeps every relation's lists in one buffer and
/// every position's occurring values in another: indexing a structure of
/// one relation and one of four relations (arities 1–3) calls the
/// allocator exactly as often, three times (the two buffers and the
/// shared slot).
#[test]
fn indexing_allocates_per_structure_not_per_relation() {
    use cqapx_structures::StructureBuilder;
    let one = directed_cycle(4);
    let vocab = Vocabulary::new(vec![("A", 2), ("B", 1), ("C", 3), ("D", 2)]);
    let mut b = StructureBuilder::new(vocab.clone(), 4);
    for (i, rel) in vocab.rel_ids().enumerate() {
        let tuple: Vec<u32> = (0..vocab.arity(rel)).map(|p| (i + p) as u32 % 4).collect();
        b.add(rel, &tuple);
    }
    let four = b.finish();
    let [one, four] = [&one, &four].map(|s| {
        counted(|| {
            s.index();
        })
        .1
    });
    assert_eq!(
        (one, four),
        (3, 3),
        "allocator calls to index 1 vs 4 relations"
    );
}

/// A warm search hands its root-level domains back to the thread's
/// scratch pool, stages its pins there too, and `exists` assembles no
/// witness, so asking again on the same target calls the allocator not
/// at all.
#[test]
fn repeated_warm_exists_allocates_nothing() {
    let (c12, c4) = (directed_cycle(12), directed_cycle(4));
    let solver = HomSolver::compile(&c12);
    let run = || solver.run(&c4).pin(0, 1).exists();
    assert!(run() && run());
    for _ in 0..3 {
        let (found, calls, _) = counted(run);
        assert!(found);
        assert_eq!(calls, 0, "allocator calls for a warm exists");
    }
}

/// `exists` stops at the first homomorphism without assembling the
/// witness `find` hands back: on the same pinned search, warmed so the target
/// index and the solver's scratch are built, it calls the allocator at
/// least once fewer.
#[test]
fn hom_exists_copies_no_witness() {
    let (c6, c3) = (directed_cycle(6), directed_cycle(3));
    let solver = HomSolver::compile(&c6);
    let run = || solver.run(&c3).pin(0, 1);
    assert!(run().find().is_some());
    let (found, exists_calls, _) = counted(|| run().exists());
    let (witness, find_calls, _) = counted(|| run().find());
    assert!(found);
    assert_eq!(witness.map(|h| h.map), Some(vec![1, 2, 0, 1, 2, 0]));
    assert!(
        exists_calls < find_calls,
        "allocator calls: {exists_calls} for exists, {find_calls} for find"
    );
}
