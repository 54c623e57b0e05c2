//! Storage-cycle-budget distribution (§4.5, Table 3).
//!
//! The real-time constraint gives an overall *storage cycle budget*; this
//! stage distributes it over the loop bodies and orders the memory
//! accesses of each body — **flow-graph balancing** — such that the
//! required memory bandwidth (simultaneous accesses, and thus ports and
//! separate memories) is minimized.
//!
//! Two cooperating pieces:
//!
//! * [`schedule_body`]: given a per-body cycle budget, place each access
//!   (with its technology-dependent duration, see
//!   [`memx_memlib::timing`]) in a start cycle between its ASAP and ALAP
//!   bounds, greedily minimizing overlap pressure (same-group overlaps
//!   are worst, off-chip/off-chip overlaps next — they force multi-port
//!   memories).
//! * [`distribute`]: assign every body its minimum (critical-path)
//!   budget, then spend the remaining global budget where it relieves
//!   the most pressure per cycle — each grant costs
//!   `iterations` cycles of global budget, which produces the paper's
//!   characteristic budget jumps ("a decrease of the budget of one loop
//!   body, which is executed 300 000 times, reduces the overall budget
//!   with 300 000 cycles").
//!
//! # Memoized candidates
//!
//! [`schedule_body`] is a pure function of (spec, nest, body budget),
//! and the marginal-relief loop reads nothing of a candidate schedule
//! but its pressure. Within one distribution the loop therefore keeps
//! each candidate's pressure by (body, body budget) and schedules it
//! once; only the granted body's budget changes between rounds, so a
//! round schedules its new lookahead candidates and re-schedules the
//! winner, not every body again. The grants, and with them every
//! schedule, are bit-identical to re-scheduling each candidate every
//! round; the memo is dropped when the distribution returns.
//!
//! # Sparse occupancy
//!
//! Schedules are stored *sparsely*: per access a placed interval, plus
//! the list of busy cycles with their occupants. Memory and time scale
//! with the number of accesses and their durations, **not** with the
//! cycle budget — budgets derived from real-time constraints easily
//! reach 10⁸ cycles, where the former dense per-cycle table
//! (`vec![Vec::new(); budget]`) would allocate gigabytes and the
//! balancing scan over the `[ASAP, ALAP]` window would never terminate.
//! The balancer only evaluates the *breakpoints* of the piecewise-linear
//! overlap-cost function (interval endpoints shifted by the access
//! duration), which provably contains the leftmost cost minimizer, so
//! sparse and dense scheduling place every access identically.

use std::collections::BTreeMap;

use memx_ir::{AppSpec, BasicGroupId, LoopNest, LoopNestId, Placement};

use crate::macp::{access_duration, body_critical_path};
use crate::ExploreError;

// memx-lint: fingerprinted(SCBD_ALGO_REVISION) — result-affecting changes
// to this scheduler (pressure weights aside, which are hashed directly)
// must bump the revision in `core::cache`.

/// Pressure cost of two accesses to the *same group* overlapping in one
/// cycle (forces a multi-port memory or a group split). `pub(crate)` so
/// the persistent cache can fold it into its model fingerprint: a
/// changed constant changes the schedules, so it must miss old entries.
pub(crate) const SAME_GROUP_COST: f64 = 8.0;
/// Pressure cost of two off-chip accesses overlapping (forces a
/// multi-port or second off-chip memory).
pub(crate) const OFF_CHIP_PAIR_COST: f64 = 4.0;
/// Pressure cost of two on-chip accesses overlapping (forces the groups
/// into different on-chip memories, or a multi-port module).
pub(crate) const ON_CHIP_PAIR_COST: f64 = 2.0;
/// Pressure cost of an on-chip access overlapping an off-chip one:
/// nearly free, since the groups live in different memories anyway.
pub(crate) const MIXED_PAIR_COST: f64 = 0.25;

/// Grant lookahead of the marginal-relief loop in
/// [`distribute_with_budget`]: how many extra cycles a body may be
/// offered at once to escape plateaus where one cycle alone does not
/// reduce pressure yet. `pub(crate)` so the persistent cache folds it
/// into its knobs fingerprint — tuning it changes the schedules, so it
/// must re-key every cached entry automatically.
pub(crate) const GRANT_LOOKAHEAD: u64 = 4;

/// Pressure contributed by two overlapping occupants.
fn pair_cost(a: &Occupant, b: &Occupant) -> f64 {
    if a.group == b.group {
        SAME_GROUP_COST
    } else if a.off_chip && b.off_chip {
        OFF_CHIP_PAIR_COST
    } else if !a.off_chip && !b.off_chip {
        ON_CHIP_PAIR_COST
    } else {
        MIXED_PAIR_COST
    }
}

/// One access occupying cycles of a body schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupant {
    /// The accessed basic group.
    pub group: BasicGroupId,
    /// Whether the target is off-chip (placement at scheduling time).
    pub off_chip: bool,
}

/// One scheduled access: which cycles of the body it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedAccess {
    /// The occupant (group and placement).
    pub occupant: Occupant,
    /// First occupied cycle.
    pub start: u64,
    /// Occupied cycle count (the access duration).
    pub duration: u64,
}

impl PlacedAccess {
    /// One past the last occupied cycle.
    pub fn end(&self) -> u64 {
        self.start + self.duration
    }
}

/// The occupants of one *busy* cycle of a body schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancySlot {
    /// The cycle within the body budget.
    pub cycle: u64,
    /// Accesses overlapping this cycle (at least one).
    pub occupants: Vec<Occupant>,
}

/// The balanced schedule of one loop body.
#[derive(Debug, Clone)]
pub struct BodySchedule {
    /// The scheduled nest.
    pub nest: LoopNestId,
    /// Nest name (for reports).
    pub name: String,
    /// Body executions per application execution.
    pub iterations: u64,
    /// Cycles allotted to one body execution.
    pub budget: u64,
    /// Placed interval of every access, in access order.
    placements: Vec<PlacedAccess>,
    /// Sparse occupancy: busy cycles (ascending) with their occupants.
    slots: Vec<OccupancySlot>,
}

impl BodySchedule {
    /// Builds a schedule from its placed intervals, deriving the sparse
    /// occupancy table. `pub(crate)` so the persistent cache can
    /// rehydrate schedules from their serialized placements — the
    /// derived slots are always recomputed, never trusted from disk.
    pub(crate) fn new(
        nest: LoopNestId,
        name: String,
        iterations: u64,
        budget: u64,
        placements: Vec<PlacedAccess>,
    ) -> Self {
        let mut by_cycle: BTreeMap<u64, Vec<Occupant>> = BTreeMap::new();
        for p in &placements {
            for t in p.start..p.end() {
                by_cycle.entry(t).or_default().push(p.occupant);
            }
        }
        let slots = by_cycle
            .into_iter()
            .map(|(cycle, occupants)| OccupancySlot { cycle, occupants })
            .collect();
        BodySchedule {
            nest,
            name,
            iterations,
            budget,
            placements,
            slots,
        }
    }

    /// The placed interval of every access, in flow-graph access order.
    pub fn placements(&self) -> &[PlacedAccess] {
        &self.placements
    }

    /// The busy cycles of the schedule (ascending), each with the
    /// accesses overlapping it. Cycles without any access are not
    /// stored — memory is proportional to the access count, not the
    /// budget.
    pub fn busy_slots(&self) -> &[OccupancySlot] {
        &self.slots
    }

    /// Number of cycles in which at least one access is in flight.
    pub fn busy_cycles(&self) -> usize {
        self.slots.len()
    }

    /// Pressure cost of this schedule (see module docs), *per body
    /// execution*.
    pub fn pressure(&self) -> f64 {
        let mut cost = 0.0;
        for slot in &self.slots {
            for (i, a) in slot.occupants.iter().enumerate() {
                for b in &slot.occupants[i + 1..] {
                    cost += pair_cost(a, b);
                }
            }
        }
        cost
    }
}

/// Result of storage-cycle-budget distribution.
#[derive(Debug, Clone)]
pub struct ScbdResult {
    /// Balanced schedules, one per non-empty loop body.
    pub bodies: Vec<BodySchedule>,
    /// Cycles consumed: `sum(iterations x budget)`.
    pub used_cycles: u64,
    /// The global budget that was distributed.
    pub total_budget: u64,
}

impl ScbdResult {
    /// Unused cycles (available to the data-path scheduler, Table 3's
    /// "extra cycles for data-path").
    pub fn slack(&self) -> u64 {
        self.total_budget.saturating_sub(self.used_cycles)
    }

    /// Maximum number of simultaneous accesses to groups selected by
    /// `members`, over all bodies and cycles — the port requirement of a
    /// memory storing exactly those groups.
    pub fn required_ports(&self, mut members: impl FnMut(BasicGroupId) -> bool) -> u32 {
        let mut max = 0;
        for body in &self.bodies {
            for slot in body.busy_slots() {
                let n = slot.occupants.iter().filter(|o| members(o.group)).count();
                max = max.max(n);
            }
        }
        max as u32
    }

    /// Number of cycle slots (weighted by body iterations) in which two
    /// or more *on-chip* accesses overlap. Zero means the on-chip
    /// organization is bandwidth-unconstrained; the first budget at
    /// which this turns positive is the Table 3 crossover where the
    /// on-chip cost starts to rise.
    pub fn on_chip_overlap_weight(&self) -> f64 {
        let mut weight = 0.0;
        for body in &self.bodies {
            for slot in body.busy_slots() {
                if slot.occupants.iter().filter(|o| !o.off_chip).count() >= 2 {
                    weight += body.iterations as f64;
                }
            }
        }
        weight
    }

    /// `true` if accesses to `a` and `b` ever overlap (the groups then
    /// cannot share a single-port memory).
    pub fn conflicts(&self, a: BasicGroupId, b: BasicGroupId) -> bool {
        for body in &self.bodies {
            for slot in body.busy_slots() {
                let has_a = slot.occupants.iter().any(|o| o.group == a);
                let has_b = slot.occupants.iter().any(|o| o.group == b);
                if has_a && has_b {
                    return true;
                }
            }
        }
        false
    }
}

/// Balances the flow graph of one body into `budget` cycles.
///
/// Accesses are placed in topological order; each picks the start cycle
/// in its `[ASAP, ALAP]` window that adds the least overlap pressure
/// (earliest on ties). Placing every access at or before its static ALAP
/// keeps all successors feasible, so the schedule always fits.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`] if the body's critical path
/// exceeds `budget`.
pub fn schedule_body(
    spec: &AppSpec,
    nest: &LoopNest,
    budget: u64,
) -> Result<BodySchedule, ExploreError> {
    schedule_body_with(spec, nest, budget, true)
}

/// Naive baseline scheduler: packs every access as-soon-as-possible
/// without balancing. Exposed for the ablation study of the balancing
/// design choice — ASAP packing maximizes overlap and therefore port
/// and separate-memory requirements.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`] if the body's critical path
/// exceeds `budget`.
pub fn schedule_body_asap(
    spec: &AppSpec,
    nest: &LoopNest,
    budget: u64,
) -> Result<BodySchedule, ExploreError> {
    schedule_body_with(spec, nest, budget, false)
}

/// Overlap cost of starting `occupant` (duration `dur`) at cycle `s`
/// against the accesses placed so far.
fn placement_cost(placed: &[PlacedAccess], occupant: &Occupant, s: u64, dur: u64) -> f64 {
    let mut cost = 0.0;
    for p in placed {
        let lo = s.max(p.start);
        let hi = (s + dur).min(p.end());
        if hi > lo {
            cost += (hi - lo) as f64 * pair_cost(&p.occupant, occupant);
        }
    }
    cost
}

fn schedule_body_with(
    spec: &AppSpec,
    nest: &LoopNest,
    budget: u64,
    balance: bool,
) -> Result<BodySchedule, ExploreError> {
    let n = nest.accesses().len();
    let cp = body_critical_path(spec, nest);
    if cp > budget {
        return Err(ExploreError::BudgetTooTight {
            nest: nest.name().to_owned(),
            required: cp,
            available: budget,
        });
    }
    let dur: Vec<u64> = nest
        .accesses()
        .iter()
        .map(|a| access_duration(spec, a))
        .collect();

    // ASAP (longest path from sources) and ALAP (budget minus longest
    // path to sinks).
    let topo = topo_order(nest);
    let mut asap = vec![0u64; n];
    for &i in &topo {
        for s in nest.successors(memx_ir::AccessId::from_index(i)) {
            let j = s.index();
            asap[j] = asap[j].max(asap[i] + dur[i]);
        }
    }
    let mut tail = dur.clone(); // longest path from start of i to end
    for &i in topo.iter().rev() {
        for s in nest.successors(memx_ir::AccessId::from_index(i)) {
            let j = s.index();
            tail[i] = tail[i].max(dur[i] + tail[j]);
        }
    }
    let alap: Vec<u64> = (0..n).map(|i| budget - tail[i]).collect();

    let mut placed: Vec<PlacedAccess> = Vec::with_capacity(n);
    let mut start = vec![0u64; n];
    let mut placement_of = vec![usize::MAX; n]; // access index -> placed index
    for &i in &topo {
        let a = &nest.accesses()[i];
        let occupant = Occupant {
            group: a.group(),
            off_chip: spec.group(a.group()).placement() == Placement::OffChip,
        };
        // Earliest start after scheduled predecessors.
        let mut earliest = asap[i];
        for pfrom in nest.predecessors(memx_ir::AccessId::from_index(i)) {
            let p = pfrom.index();
            earliest = earliest.max(start[p] + dur[p]);
        }
        debug_assert!(earliest <= alap[i], "window collapsed for access {i}");
        let mut best = earliest;
        if balance && !placed.is_empty() {
            // The overlap cost is piecewise linear in the start cycle;
            // its leftmost minimizer over [earliest, alap] is either a
            // window endpoint or a breakpoint — an endpoint of a placed
            // interval, possibly shifted left by this access's duration.
            // Evaluating only those candidates (ascending, strict
            // improvement, early exit on zero) picks exactly the cycle a
            // full per-cycle scan would.
            let mut cands: Vec<u64> = Vec::with_capacity(4 * placed.len() + 2);
            cands.push(earliest);
            cands.push(alap[i]);
            for p in &placed {
                for c in [
                    Some(p.start),
                    Some(p.end()),
                    p.start.checked_sub(dur[i]),
                    p.end().checked_sub(dur[i]),
                ]
                .into_iter()
                .flatten()
                {
                    if c > earliest && c < alap[i] {
                        cands.push(c);
                    }
                }
            }
            cands.sort_unstable();
            cands.dedup();
            let mut best_cost = f64::INFINITY;
            for &s in &cands {
                let cost = placement_cost(&placed, &occupant, s, dur[i]);
                if cost < best_cost {
                    best_cost = cost;
                    best = s;
                    if cost == 0.0 {
                        break;
                    }
                }
            }
        }
        start[i] = best;
        placement_of[i] = placed.len();
        placed.push(PlacedAccess {
            occupant,
            start: best,
            duration: dur[i],
        });
    }
    // Report placements in access order, not topological order.
    let mut placements = Vec::with_capacity(n);
    for i in 0..n {
        placements.push(placed[placement_of[i]]);
    }
    Ok(BodySchedule::new(
        nest.id(),
        nest.name().to_owned(),
        nest.iterations(),
        budget,
        placements,
    ))
}

fn topo_order(nest: &LoopNest) -> Vec<usize> {
    let n = nest.accesses().len();
    let mut indeg = vec![0usize; n];
    for e in nest.dependencies() {
        indeg[e.to.index()] += 1;
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    stack.reverse(); // deterministic: prefer low indices first
    let mut order = Vec::with_capacity(n);
    while let Some(i) = stack.pop() {
        order.push(i);
        for e in nest.dependencies().iter().filter(|e| e.from.index() == i) {
            let j = e.to.index();
            indeg[j] -= 1;
            if indeg[j] == 0 {
                stack.push(j);
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Distributes the spec's storage cycle budget over its loop bodies (see
/// module docs).
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`] if even the per-body
/// critical paths do not fit the global budget.
pub fn distribute(spec: &AppSpec) -> Result<ScbdResult, ExploreError> {
    distribute_with_budget(spec, spec.cycle_budget())
}

/// The non-empty loop bodies, each at its critical-path budget, and the
/// global cycles those budgets use — the starting point of both
/// distributions.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`], naming the heaviest body
/// for diagnosis, if the critical paths alone exceed `budget`.
fn critical_path_start(
    spec: &AppSpec,
    budget: u64,
) -> Result<(Vec<&LoopNest>, Vec<u64>, u64), ExploreError> {
    let nests: Vec<&LoopNest> = spec
        .loop_nests()
        .iter()
        .filter(|n| !n.accesses().is_empty())
        .collect();
    let budgets: Vec<u64> = nests.iter().map(|n| body_critical_path(spec, n)).collect();
    let used: u64 = nests
        .iter()
        .zip(&budgets)
        .map(|(n, &b)| n.iterations() * b)
        .sum();
    if used > budget {
        let worst = nests
            .iter()
            .zip(&budgets)
            .max_by_key(|(n, &b)| n.iterations() * b)
            .map(|(n, _)| n.name().to_owned())
            .unwrap_or_default();
        return Err(ExploreError::BudgetTooTight {
            nest: worst,
            required: used,
            available: budget,
        });
    }
    Ok((nests, budgets, used))
}

/// Naive baseline distribution for the balancing ablation: every body
/// gets its critical-path budget and is packed ASAP — no balancing, no
/// marginal-relief grants. This is what a schedule looks like *without*
/// the paper's flow-graph balancing.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`] if even the per-body
/// critical paths do not fit the global budget.
pub fn distribute_asap(spec: &AppSpec, budget: u64) -> Result<ScbdResult, ExploreError> {
    let (nests, budgets, used) = critical_path_start(spec, budget)?;
    let bodies = nests
        .iter()
        .zip(&budgets)
        .map(|(n, &b)| schedule_body_asap(spec, n, b))
        .collect::<Result<_, _>>()?;
    Ok(ScbdResult {
        bodies,
        used_cycles: used,
        total_budget: budget,
    })
}

/// Like [`distribute`], but with an explicit global budget — the knob
/// the designer turns in Table 3 ("the designer can opt for a lower
/// storage cycle budget, to allow more cycles for the data processing").
///
/// Thanks to the sparse schedule representation this handles budgets of
/// any magnitude (10⁸-cycle real-time budgets and beyond): cost is
/// proportional to the number of accesses, not the budget.
///
/// Each (body, body budget) candidate's pressure is computed once per
/// call (see the module docs): [`schedule_body`] is pure, so the
/// memoized pressure is exactly what a fresh schedule would report, and
/// the result is the one the unmemoized loop computes.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`] if the budget is below the
/// sum of per-body critical paths.
pub fn distribute_with_budget(spec: &AppSpec, budget: u64) -> Result<ScbdResult, ExploreError> {
    // Start at the critical-path minimum per body.
    let (nests, mut budgets, mut used) = critical_path_start(spec, budget)?;
    let serial: Vec<u64> = nests
        .iter()
        .map(|n| n.accesses().iter().map(|a| access_duration(spec, a)).sum())
        .collect();

    let mut schedules: Vec<BodySchedule> = nests
        .iter()
        .zip(&budgets)
        .map(|(n, &b)| schedule_body(spec, n, b))
        .collect::<Result<_, _>>()?;
    let mut pressures: Vec<f64> = schedules.iter().map(BodySchedule::pressure).collect();

    // Greedy marginal-relief loop: grant extra cycles to the body with
    // the best pressure relief per global-budget cycle. A small
    // lookahead (several cycles at once) escapes plateaus where one
    // extra cycle alone does not reduce pressure yet. Candidate
    // pressures are memoized (see the module docs): a body's candidates
    // lie in (critical path, serial], so it gets one slot per budget
    // there, indexed back from its serial budget.
    let mut candidate_pressure: Vec<Vec<Option<f64>>> = serial
        .iter()
        .zip(&budgets)
        .map(|(&s, &b)| vec![None; s.saturating_sub(b) as usize])
        .collect();
    loop {
        let mut best: Option<(usize, u64, f64)> = None;
        for (i, nest) in nests.iter().enumerate() {
            if pressures[i] == 0.0 {
                continue;
            }
            let step = nest.iterations();
            let max_extra = GRANT_LOOKAHEAD
                .min(serial[i].saturating_sub(budgets[i]))
                .min(budget.saturating_sub(used) / step.max(1));
            for extra in 1..=max_extra {
                let body_budget = budgets[i] + extra;
                let memo = &mut candidate_pressure[i][(serial[i] - body_budget) as usize];
                let pressure = match *memo {
                    Some(pressure) => pressure,
                    None => *memo.insert(schedule_body(spec, nest, body_budget)?.pressure()),
                };
                let relief = (pressures[i] - pressure) * step as f64;
                let relief_per_cycle = relief / (extra * step) as f64;
                if relief_per_cycle > 0.0
                    && best
                        .as_ref()
                        .map(|(_, _, r)| relief_per_cycle > *r)
                        .unwrap_or(true)
                {
                    best = Some((i, extra, relief_per_cycle));
                }
            }
        }
        match best {
            Some((i, extra, _)) => {
                budgets[i] += extra;
                used += extra * nests[i].iterations();
                schedules[i] = schedule_body(spec, nests[i], budgets[i])?;
                pressures[i] = schedules[i].pressure();
            }
            None => break,
        }
    }

    Ok(ScbdResult {
        bodies: schedules,
        used_cycles: used,
        total_budget: budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memx_ir::{AccessKind, AppSpecBuilder};
    use proptest::prelude::*;

    /// Two independent reads of different groups plus a dependent write.
    fn small_spec(budget: u64) -> AppSpec {
        let mut b = AppSpecBuilder::new("t");
        let x = b.basic_group("x", 64, 8).unwrap();
        let y = b.basic_group("y", 64, 8).unwrap();
        let n = b.loop_nest("l", 100).unwrap();
        let rx = b.access(n, x, AccessKind::Read).unwrap();
        let ry = b.access(n, y, AccessKind::Read).unwrap();
        let w = b.access(n, x, AccessKind::Write).unwrap();
        b.depend(n, rx, w).unwrap();
        b.depend(n, ry, w).unwrap();
        b.cycle_budget(budget);
        b.build().unwrap()
    }

    #[test]
    fn tight_budget_forces_overlap() {
        let spec = small_spec(200); // 2 cycles/body: reads must overlap
        let result = distribute(&spec).unwrap();
        assert_eq!(result.bodies[0].budget, 2);
        // The two reads overlap -> x and y conflict.
        let x = memx_ir::BasicGroupId::from_index(0);
        let y = memx_ir::BasicGroupId::from_index(1);
        assert!(result.conflicts(x, y));
    }

    #[test]
    fn loose_budget_removes_conflicts() {
        let spec = small_spec(1000);
        let result = distribute(&spec).unwrap();
        assert!(result.bodies[0].budget >= 3);
        let x = memx_ir::BasicGroupId::from_index(0);
        let y = memx_ir::BasicGroupId::from_index(1);
        assert!(!result.conflicts(x, y));
        assert_eq!(result.bodies[0].pressure(), 0.0);
    }

    #[test]
    fn infeasible_budget_errors() {
        let spec = small_spec(200);
        let err = distribute_with_budget(&spec, 150).unwrap_err();
        assert_eq!(
            err,
            ExploreError::BudgetTooTight {
                nest: "l".to_owned(),
                required: 200,
                available: 150,
            }
        );
        assert_eq!(distribute_asap(&spec, 150).unwrap_err(), err);
    }

    #[test]
    fn slack_accounts_unused_cycles() {
        let spec = small_spec(1000);
        let result = distribute(&spec).unwrap();
        assert_eq!(result.slack(), 1000 - result.used_cycles);
        assert!(result.used_cycles <= 1000);
    }

    #[test]
    fn required_ports_counts_same_group_overlap() {
        // Two independent reads of the SAME group with budget 1 slot
        // each... they must overlap when the budget is the critical path.
        let mut b = AppSpecBuilder::new("t");
        let x = b.basic_group("x", 64, 8).unwrap();
        let n = b.loop_nest("l", 10).unwrap();
        b.access(n, x, AccessKind::Read).unwrap();
        b.access(n, x, AccessKind::Read).unwrap();
        b.cycle_budget(10); // 1 cycle per body
        let spec = b.build().unwrap();
        let result = distribute(&spec).unwrap();
        let ports = result.required_ports(|g| g == x);
        assert_eq!(ports, 2);
    }

    #[test]
    fn budget_grants_go_to_the_hottest_body() {
        // One hot body (many iterations) and one cold body compete for
        // slack; relief per global cycle favours the hot one only if its
        // pressure drop is worth iterations x 1 cycle... with equal
        // bodies the cold one is cheaper to relieve.
        let mut b = AppSpecBuilder::new("t");
        let x = b.basic_group("x", 64, 8).unwrap();
        let y = b.basic_group("y", 64, 8).unwrap();
        let hot = b.loop_nest("hot", 1000).unwrap();
        b.access(hot, x, AccessKind::Read).unwrap();
        b.access(hot, y, AccessKind::Read).unwrap();
        let cold = b.loop_nest("cold", 10).unwrap();
        b.access(cold, x, AccessKind::Read).unwrap();
        b.access(cold, y, AccessKind::Read).unwrap();
        // Enough for cold to relax (adds 10 cycles) but not hot (needs
        // 1000).
        b.cycle_budget(1000 + 10 + 10 + 5);
        let spec = b.build().unwrap();
        let result = distribute(&spec).unwrap();
        let hot_sched = result.bodies.iter().find(|s| s.name == "hot").unwrap();
        let cold_sched = result.bodies.iter().find(|s| s.name == "cold").unwrap();
        assert_eq!(hot_sched.budget, 1);
        assert_eq!(cold_sched.budget, 2);
    }

    #[test]
    fn off_chip_durations_respected() {
        let mut b = AppSpecBuilder::new("t");
        let g = b
            .basic_group_placed("g", 1 << 20, 8, memx_ir::Placement::OffChip)
            .unwrap();
        let n = b.loop_nest("l", 10).unwrap();
        b.access(n, g, AccessKind::Read).unwrap();
        b.cycle_budget(40);
        let spec = b.build().unwrap();
        let result = distribute(&spec).unwrap();
        // A single random off-chip access occupies 4 cycles.
        assert_eq!(result.bodies[0].budget, 4);
        assert_eq!(result.bodies[0].busy_cycles(), 4);
    }

    #[test]
    fn asap_packing_never_beats_balancing() {
        let spec = small_spec(1000);
        let balanced = distribute(&spec).unwrap();
        let naive = distribute_asap(&spec, 1000).unwrap();
        let bp: f64 = balanced.bodies.iter().map(BodySchedule::pressure).sum();
        let np: f64 = naive.bodies.iter().map(BodySchedule::pressure).sum();
        assert!(bp <= np, "balanced {bp} > naive {np}");
        // With a loose budget the balanced schedule is conflict-free
        // while ASAP still packs the two reads together.
        assert_eq!(bp, 0.0);
        assert!(np > 0.0);
    }

    #[test]
    fn empty_nests_are_skipped() {
        let mut b = AppSpecBuilder::new("t");
        let g = b.basic_group("g", 64, 8).unwrap();
        let n = b.loop_nest("real", 10).unwrap();
        b.access(n, g, AccessKind::Read).unwrap();
        b.loop_nest("empty", 1000).unwrap();
        b.cycle_budget(100);
        let spec = b.build().unwrap();
        let result = distribute(&spec).unwrap();
        assert_eq!(result.bodies.len(), 1);
    }

    #[test]
    fn hundred_million_cycle_budget_schedules_sparsely() {
        // A production-scale budget derived from a real-time constraint.
        // The dense per-cycle table would allocate 10^8 slot vectors;
        // the sparse schedule stays proportional to the access count.
        let spec = small_spec(100_000_000);
        let result = distribute_with_budget(&spec, 100_000_000).unwrap();
        let body = &result.bodies[0];
        // 3 accesses of 1 cycle each: at most 3 busy cycles stored.
        assert!(body.busy_cycles() <= 3);
        assert_eq!(body.placements().len(), 3);
        assert_eq!(body.pressure(), 0.0);
        assert!(result.used_cycles <= 100_000_000);
    }

    #[test]
    fn astronomical_body_budget_is_fine() {
        // Near-u64::MAX budgets must neither overflow nor allocate.
        let spec = small_spec(400);
        let nest = &spec.loop_nests()[0];
        let sched = schedule_body(&spec, nest, u64::MAX / 2).unwrap();
        assert!(sched.busy_cycles() <= 3);
        assert_eq!(sched.pressure(), 0.0);
    }

    #[test]
    fn busy_slots_match_placements() {
        let spec = small_spec(1000);
        let result = distribute(&spec).unwrap();
        for body in &result.bodies {
            let occupant_cycles: usize = body.busy_slots().iter().map(|s| s.occupants.len()).sum();
            let durations: u64 = body.placements().iter().map(|p| p.duration).sum();
            assert_eq!(occupant_cycles as u64, durations);
            for p in body.placements() {
                assert!(p.end() <= body.budget);
            }
            for w in body.busy_slots().windows(2) {
                assert!(w[0].cycle < w[1].cycle, "slots must be ascending");
            }
        }
    }

    /// The marginal-relief loop without the candidate memo: every
    /// round re-schedules every candidate. The reference the memoized
    /// [`distribute_with_budget`] must match bit for bit.
    fn distribute_unmemoized(spec: &AppSpec, budget: u64) -> Result<ScbdResult, ExploreError> {
        let (nests, mut budgets, mut used) = critical_path_start(spec, budget)?;
        let serial: Vec<u64> = nests
            .iter()
            .map(|n| n.accesses().iter().map(|a| access_duration(spec, a)).sum())
            .collect();
        let mut schedules: Vec<BodySchedule> = nests
            .iter()
            .zip(&budgets)
            .map(|(n, &b)| schedule_body(spec, n, b))
            .collect::<Result<_, _>>()?;
        let mut pressures: Vec<f64> = schedules.iter().map(BodySchedule::pressure).collect();
        loop {
            let mut best: Option<(usize, u64, BodySchedule, f64)> = None;
            for (i, nest) in nests.iter().enumerate() {
                if pressures[i] == 0.0 {
                    continue;
                }
                let step = nest.iterations();
                let max_extra = GRANT_LOOKAHEAD
                    .min(serial[i].saturating_sub(budgets[i]))
                    .min(budget.saturating_sub(used) / step.max(1));
                for extra in 1..=max_extra {
                    let candidate = schedule_body(spec, nest, budgets[i] + extra)?;
                    let relief = (pressures[i] - candidate.pressure()) * step as f64;
                    let relief_per_cycle = relief / (extra * step) as f64;
                    if relief_per_cycle > 0.0
                        && best
                            .as_ref()
                            .map(|(_, _, _, r)| relief_per_cycle > *r)
                            .unwrap_or(true)
                    {
                        best = Some((i, extra, candidate, relief_per_cycle));
                    }
                }
            }
            match best {
                Some((i, extra, candidate, _)) => {
                    budgets[i] += extra;
                    used += extra * nests[i].iterations();
                    pressures[i] = candidate.pressure();
                    schedules[i] = candidate;
                }
                None => break,
            }
        }
        Ok(ScbdResult {
            bodies: schedules,
            used_cycles: used,
            total_budget: budget,
        })
    }

    /// Small random multi-nest spec: 1–4 groups (mixed placement, so
    /// durations differ), 1–4 nests of random access chains.
    fn arb_spec() -> impl Strategy<Value = AppSpec> {
        let group = (1u64..4_000, 1u32..16, prop::bool::ANY);
        let access = (0usize..4, prop::bool::ANY, prop::bool::ANY);
        let nest = (1u64..50, prop::collection::vec(access, 1..7));
        (
            prop::collection::vec(group, 1..5),
            prop::collection::vec(nest, 1..5),
        )
            .prop_map(|(groups, nests)| {
                let mut b = AppSpecBuilder::new("memo");
                let ids: Vec<BasicGroupId> = groups
                    .iter()
                    .enumerate()
                    .map(|(i, &(words, width, off))| {
                        let placement = if off && words > 1_000 {
                            Placement::OffChip
                        } else {
                            Placement::Any
                        };
                        b.basic_group_placed(format!("g{i}"), words, width, placement)
                            .unwrap()
                    })
                    .collect();
                for (n, (iters, accesses)) in nests.iter().enumerate() {
                    let nid = b.loop_nest(format!("n{n}"), *iters).unwrap();
                    let mut prev = None;
                    for &(g, write, depends) in accesses {
                        let kind = if write {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        let a = b.access(nid, ids[g % ids.len()], kind).unwrap();
                        if let (true, Some(p)) = (depends, prev) {
                            b.depend(nid, p, a).unwrap();
                        }
                        prev = Some(a);
                    }
                }
                // The spec's own budget is unused (each case picks one);
                // 4 cycles per access covers the worst duration.
                b.cycle_budget(
                    nests
                        .iter()
                        .map(|(iters, accesses)| iters * accesses.len() as u64 * 4)
                        .sum(),
                );
                b.build().unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn memoized_distribution_matches_the_reference(
            spec in arb_spec(),
            percent in 0u64..=140,
        ) {
            // Budgets from one cycle below the critical-path sum (an
            // error, in about a quarter of the cases) up past full
            // serialization of every body.
            let nests = spec.loop_nests();
            let critical: u64 = nests
                .iter()
                .map(|n| n.iterations() * body_critical_path(&spec, n))
                .sum();
            let serial: u64 = nests
                .iter()
                .map(|n| {
                    n.iterations()
                        * n.accesses().iter().map(|a| access_duration(&spec, a)).sum::<u64>()
                })
                .sum();
            let budget = critical - 1 + (serial + 1 - critical) * percent.saturating_sub(20) / 100;
            match (
                distribute_with_budget(&spec, budget),
                distribute_unmemoized(&spec, budget),
            ) {
                (Ok(memo), Ok(reference)) => {
                    prop_assert_eq!(memo.used_cycles, reference.used_cycles);
                    prop_assert_eq!(memo.bodies.len(), reference.bodies.len());
                    for (m, r) in memo.bodies.iter().zip(&reference.bodies) {
                        prop_assert_eq!(m.budget, r.budget);
                        prop_assert_eq!(m.placements(), r.placements());
                    }
                }
                (Err(memo), Err(reference)) => prop_assert_eq!(memo, reference),
                (memo, reference) => panic!(
                    "budget {budget}: memoized {:?} vs reference {:?}",
                    memo.map(|r| r.used_cycles),
                    reference.map(|r| r.used_cycles)
                ),
            }
        }
    }
}
