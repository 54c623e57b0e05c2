//! The generic deterministic subtree-fan harness.
//!
//! Both exact solvers of [`crate::alloc`] — the on-chip partition
//! branch-and-bound and the off-chip set-partition branch-and-bound —
//! fan a canonical search tree over worker threads with the *same*
//! choreography:
//!
//! 1. the canonical tree is split into deterministic **prefix
//!    subtrees** (at least [`TARGET_SUBTREES`] of them, breadth-first in
//!    depth-first child order, so the prefix sequence preserves the
//!    serial visiting order);
//! 2. a **seed subtree** — the one with the smallest root lower bound,
//!    earliest on ties — is explored first, alone, with the full node
//!    budget, against the (deterministic) greedy incumbent;
//! 3. the seed's result value is published through an **atomic
//!    incumbent** (`f64` bits in an [`AtomicU64`]) and the remaining
//!    node budget is split evenly over the subtrees;
//! 4. workers claim subtrees from a shared **claim queue** in
//!    most-promising-first order; a claimed subtree is *skipped* when
//!    its root lower bound is above the published incumbent, otherwise
//!    it is explored against the **fixed** seed value with its private
//!    budget, and any real result tightens the published incumbent;
//! 5. the per-subtree outcomes are handed back **in canonical prefix
//!    order** so the caller's strict-improvement reduction reproduces
//!    the serial first-found-minimum tie-break bit for bit.
//!
//! The harness is parameterized by an explore function and a skip
//! predicate via [`SubtreeSearch`]: the on-chip solver skips strictly
//! (`lb > incumbent`), the off-chip solver skips with the ulp guard of
//! [`above_with_slack`] because its suffix floor can be *exactly* tight
//! in real arithmetic. Everything timing-dependent is confined to this
//! module; no solver result may depend on it.
//!
//! # Why the result is bit-identical for every worker count
//!
//! * the subtree split, the seed choice, the seed search and the budget
//!   split are pure functions of deterministic inputs;
//! * the published incumbent is used **only** to skip whole subtrees
//!   whose root lower bound is above it. The incumbent is monotonically
//!   non-increasing and always the value of a *real* candidate, so a
//!   skipped subtree provably cannot win a strict-improvement
//!   reduction — skipping removes only subtrees that lose anyway;
//! * every non-seed subtree is explored against the *fixed* seed value
//!   (never the evolving incumbent) with a deterministic budget, so each
//!   outcome is a pure function of its prefix;
//! * outcomes reduce in canonical prefix order, independent of
//!   completion order.
//!
//! # Atomics and memory-ordering audit
//!
//! This module is the only place in the workspace where solver-facing
//! atomics live (enforced by `memx-lint`'s `atomics-confined` lint; the
//! cache's statistics counters and the profiler's access counters are
//! the two allowlisted exceptions). Every operation uses
//! `Ordering::Relaxed`, which is sufficient — per atomic:
//!
//! * **[`Incumbent`]** (`AtomicU64` holding `f64` bits): *skip-only*
//!   usage. Readers never order payload reads against it — the value
//!   gates nothing but the "explore vs. skip" decision, and both
//!   branches are correct for *any* previously published value: a stale
//!   (too high) read only explores more, never less, and a fresh read
//!   can only skip subtrees whose bound is above a real candidate's
//!   value. The monotone-minimum CAS loop needs no ordering either: bit
//!   patterns of the candidate values are data, not ordering tokens.
//! * **[`ClaimQueue`]** (`AtomicUsize` counter): `fetch_add` is an
//!   atomic read-modify-write, so every claim index is handed out
//!   exactly once — the only property the queue needs. No payload is
//!   transferred through the counter itself.
//! * **Result hand-off** happens through per-subtree [`Mutex`] slots
//!   written by the claiming worker and read only after
//!   [`std::thread::scope`] joins every worker — the scope join provides
//!   the happens-before edge, so the slots need no atomic ordering at
//!   all.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::engine::note_thread_spawn;

/// How many canonical-prefix subtrees a fanned search splits into.
/// Deliberately a constant (not a function of the worker count) so the
/// per-subtree node budgets — and therefore the search result — do not
/// depend on the machine the search runs on.
pub const TARGET_SUBTREES: usize = 512;

/// Strictly-above test with an ulp guard, for comparing a lower bound
/// against the cost of a *real* candidate (greedy, seed or published
/// incumbent). A suffix floor can be exactly tight in real arithmetic —
/// e.g. same-part merges whose marginal energy equals the floor — where
/// float rounding could push the bound a few ulps past the candidate
/// cost and cut the canonical-first optimum. The guard admits those
/// ties: it only ever explores more, never less.
pub fn above_with_slack(lb: f64, bound: f64) -> bool {
    lb > bound + bound.abs() * 1e-12
}

/// A published monotone-minimum incumbent value: `f64` bits in an
/// [`AtomicU64`], shared between fan workers and used **only** to skip
/// work whose lower bound is above it (see the module docs for why
/// `Relaxed` is sufficient).
#[derive(Debug)]
pub struct Incumbent(AtomicU64);

impl Incumbent {
    /// An incumbent starting at `val` (the seed or greedy value;
    /// `f64::INFINITY` when no candidate exists yet).
    pub fn new(val: f64) -> Self {
        Incumbent(AtomicU64::new(val.to_bits()))
    }

    /// The best value published so far.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Lowers the incumbent to `val` if it improves on the published
    /// value (lock-free monotone minimum; compares as floats, though bit
    /// order and value order coincide for the non-negative costs the
    /// solvers publish).
    pub fn publish_min(&self, val: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while val < f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                val.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }
}

/// A dynamic work-claim counter: each call to [`ClaimQueue::claim`]
/// hands out the next index exactly once, across however many worker
/// threads share the queue. The claim *order* is timing-dependent; the
/// claimed *set* is not — deterministic users must make every outcome
/// independent of who claimed it (see the module docs).
#[derive(Debug, Default)]
pub struct ClaimQueue(AtomicUsize);

impl ClaimQueue {
    /// A fresh queue starting at index 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims the next unclaimed index below `len`, or `None` when all
    /// `len` indices have been handed out.
    pub fn claim(&self, len: usize) -> Option<usize> {
        let i = self.0.fetch_add(1, Ordering::Relaxed);
        (i < len).then_some(i)
    }
}

/// One deterministically-fanned subtree search: the solver-specific
/// pieces the generic harness of [`fan_subtrees`] is parameterized by.
///
/// Implementations must keep `explore` a **pure function** of
/// `(state-as-memo, prefix, outer, budget)` — its result may depend on
/// the per-worker state only as a cache of deterministic values, never
/// on what other threads are doing. The harness guarantees in return
/// that `outer` and `budget` are chosen deterministically.
pub trait SubtreeSearch: Sync {
    /// One canonical prefix subtree.
    type Prefix: Sync;
    /// Per-worker scratch state (memo caches); cloned per worker thread
    /// and dropped when the worker finishes.
    type State: Send;
    /// The outcome of exploring (or skipping) one subtree.
    type Outcome: Send;

    /// Explores one subtree against the fixed outer bound `outer` with
    /// a private node budget `budget`.
    fn explore(
        &self,
        state: &mut Self::State,
        prefix: &Self::Prefix,
        outer: f64,
        budget: u64,
    ) -> Self::Outcome;

    /// Clones the scratch state for one worker thread (clones taken
    /// after the seed phase, so every worker inherits the seed's memo).
    fn clone_state(&self, state: &Self::State) -> Self::State;

    /// The outcome recorded for a subtree skipped against the published
    /// incumbent (no nodes, no result, flagged as skipped if the solver
    /// tracks that).
    fn skipped(&self) -> Self::Outcome;

    /// The publishable value of an outcome: `Some(cost)` when the
    /// subtree produced a real candidate, `None` otherwise.
    fn value(&self, outcome: &Self::Outcome) -> Option<f64>;

    /// Nodes the outcome consumed (charged against the global budget
    /// for the seed phase).
    fn nodes(&self, outcome: &Self::Outcome) -> u64;

    /// Whether a subtree with root lower bound `lb` may be skipped
    /// against the published incumbent `bound`. The default is the
    /// strict comparison; searches whose bounds can be exactly tight
    /// override this with [`above_with_slack`].
    fn skip_above(&self, lb: f64, bound: f64) -> bool {
        lb > bound
    }
}

/// Runs the deterministic subtree fan-out (see the module docs): seed
/// phase, budget split, published incumbent, claim queue — returning
/// one outcome per prefix **in canonical prefix order** for the caller
/// to reduce with strict improvement.
///
/// `bounds[i]` must be the deterministic root lower bound of
/// `prefixes[i]`; `initial_bound` is the greedy incumbent's value (or
/// `f64::INFINITY`), used as the seed subtree's outer bound; the seed's
/// node consumption is charged against `node_limit` before the
/// remainder is split evenly. With an effective worker count of 1 the
/// whole fan runs inline on the calling thread and spawns nothing.
pub fn fan_subtrees<T: SubtreeSearch>(
    search: &T,
    prefixes: &[T::Prefix],
    bounds: &[f64],
    state: &mut T::State,
    initial_bound: f64,
    node_limit: u64,
    workers: usize,
) -> Vec<T::Outcome> {
    debug_assert_eq!(prefixes.len(), bounds.len());
    if prefixes.is_empty() {
        return Vec::new();
    }

    // Seed phase: the subtree with the smallest root lower bound
    // (earliest on ties) is explored first, alone, with the full node
    // budget — it is the most likely home of the optimum. Its result
    // tightens the bound every other subtree starts from —
    // deterministically, since the choice of seed and its search depend
    // on nothing timing-related. This recovers most of the pruning
    // power a serial DFS gets from its evolving incumbent.
    let mut seed_idx = 0usize;
    for j in 1..prefixes.len() {
        if bounds[j].total_cmp(&bounds[seed_idx]).is_lt() {
            seed_idx = j;
        }
    }
    let seed_out = search.explore(state, &prefixes[seed_idx], initial_bound, node_limit);
    let seed_val = search.value(&seed_out).unwrap_or(initial_bound);

    // The seed's consumption is charged against the global node limit;
    // only the remainder is split over the other subtrees. When the
    // search is exact the seed finishes cheaply and the others keep a
    // full share; when the limit is exhausted the others degrade to
    // zero-budget probes instead of doubling the total node spend. The
    // split is a pure function of the (deterministic) seed search, so
    // results stay independent of worker count and thread timing.
    let node_budget =
        node_limit.saturating_sub(search.nodes(&seed_out)) / prefixes.len().max(1) as u64;

    // Fan the remaining subtrees over the workers. The published
    // incumbent only ever *skips* whole subtrees (never steers a
    // running search): a subtree that could win the deterministic
    // reduction has a lower bound at most the final minimum and is
    // therefore never skipped, so the result is independent of thread
    // timing. Claim subtrees most-promising-first (a fixed permutation)
    // so the published bound tightens as early as possible.
    let published = Incumbent::new(seed_val);
    let queue = ClaimQueue::new();
    let slots: Vec<Mutex<Option<T::Outcome>>> =
        (0..prefixes.len()).map(|_| Mutex::new(None)).collect();
    let claim_order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..prefixes.len()).collect();
        idx.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b)));
        idx
    };
    let run = |state: &mut T::State| {
        while let Some(c) = queue.claim(claim_order.len()) {
            let j = claim_order[c];
            if j == seed_idx {
                continue; // already explored in the seed phase
            }
            let out = if search.skip_above(bounds[j], published.get()) {
                search.skipped()
            } else {
                search.explore(state, &prefixes[j], seed_val, node_budget)
            };
            if let Some(val) = search.value(&out) {
                published.publish_min(val);
            }
            // A poisoned slot lock can only come from a sibling worker
            // panicking mid-store; the slot itself is a plain `Option`,
            // so recovering the lock is always safe.
            *slots[j].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
        }
    };

    let fan_workers = workers.min(prefixes.len());
    if fan_workers <= 1 {
        // Straight serial path: the claim loop runs inline on the
        // calling thread, in canonical claim order, spawning nothing.
        run(state);
    } else {
        thread::scope(|scope| {
            for _ in 0..fan_workers {
                let mut worker_state = search.clone_state(state);
                note_thread_spawn();
                scope.spawn(move || run(&mut worker_state));
            }
        });
    }

    // Hand the outcomes back in canonical prefix order (the seed in its
    // slot), for the caller's strict-improvement reduction.
    let mut seed_slot = Some(seed_out);
    slots
        .into_iter()
        .enumerate()
        .map(|(j, slot)| {
            if j == seed_idx {
                // memx-lint: allow(no-panic-paths) — the seed outcome is moved out exactly once.
                seed_slot.take().expect("seed outcome handed back once")
            } else {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    // memx-lint: allow(no-panic-paths) — the claim queue hands out every index exactly once, so each non-seed slot was filled.
                    .expect("every non-seed subtree claimed and stored")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy search: prefixes are integer "costs", exploring returns the
    /// cost, bounds equal the costs. Lets the harness logic be checked
    /// without dragging a solver in.
    struct Toy;

    #[derive(Debug, PartialEq)]
    struct ToyOutcome {
        val: Option<f64>,
        nodes: u64,
        skipped: bool,
    }

    impl SubtreeSearch for Toy {
        type Prefix = f64;
        type State = u64;
        type Outcome = ToyOutcome;

        fn explore(&self, state: &mut u64, p: &f64, outer: f64, _budget: u64) -> ToyOutcome {
            *state += 1;
            ToyOutcome {
                val: (*p < outer).then_some(*p),
                nodes: 1,
                skipped: false,
            }
        }
        fn clone_state(&self, s: &u64) -> u64 {
            *s
        }
        fn skipped(&self) -> ToyOutcome {
            ToyOutcome {
                val: None,
                nodes: 0,
                skipped: true,
            }
        }
        fn value(&self, o: &ToyOutcome) -> Option<f64> {
            o.val
        }
        fn nodes(&self, o: &ToyOutcome) -> u64 {
            o.nodes
        }
    }

    #[test]
    fn outcomes_come_back_in_canonical_order_for_every_worker_count() {
        let prefixes = [5.0, 3.0, 9.0, 1.0, 7.0];
        let reference: Vec<ToyOutcome> = {
            let mut state = 0;
            fan_subtrees(&Toy, &prefixes, &prefixes, &mut state, 8.0, 100, 1)
        };
        for workers in [2, 4, 8] {
            let mut state = 0;
            let got = fan_subtrees(&Toy, &prefixes, &prefixes, &mut state, 8.0, 100, workers);
            // The seed (index 3, smallest bound) always explores; 9.0 is
            // skipped against the published 1.0... except values above
            // the incumbent are skipped nondeterministically, so only
            // compare the *reduction-relevant* view: values.
            let vals: Vec<Option<f64>> = got.iter().map(|o| o.val).collect();
            let ref_vals: Vec<Option<f64>> = reference.iter().map(|o| o.val).collect();
            assert_eq!(vals, ref_vals, "workers={workers}");
        }
    }

    #[test]
    fn seed_gets_the_initial_bound_and_others_get_the_seed_value() {
        // Seed is 1.0 (smallest bound), explored against 8.0 → value 1.0
        // published; every other subtree explores against 1.0 and none
        // beats it, or is skipped outright (bound above incumbent).
        let prefixes = [5.0, 3.0, 1.0];
        let mut state = 0;
        let out = fan_subtrees(&Toy, &prefixes, &prefixes, &mut state, 8.0, 100, 1);
        assert_eq!(out[2].val, Some(1.0));
        assert_eq!(out[0].val, None);
        assert_eq!(out[1].val, None);
    }

    #[test]
    fn empty_prefixes_fan_to_nothing() {
        let mut state = 0;
        let out = fan_subtrees(&Toy, &[], &[], &mut state, f64::INFINITY, 100, 8);
        assert!(out.is_empty());
    }

    #[test]
    fn claim_queue_hands_out_each_index_once() {
        let q = ClaimQueue::new();
        let mut got: Vec<usize> = std::iter::from_fn(|| q.claim(5)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.claim(5), None);
    }

    #[test]
    fn incumbent_is_a_monotone_minimum() {
        let inc = Incumbent::new(f64::INFINITY);
        inc.publish_min(5.0);
        inc.publish_min(7.0);
        assert_eq!(inc.get(), 5.0);
        inc.publish_min(2.5);
        assert_eq!(inc.get(), 2.5);
    }

    #[test]
    fn slack_admits_ties_and_near_ties() {
        assert!(!above_with_slack(1.0, 1.0));
        assert!(!above_with_slack(1.0 + 1e-15, 1.0));
        assert!(above_with_slack(1.0 + 1e-9, 1.0));
        assert!(above_with_slack(1.0, 0.5));
    }
}
