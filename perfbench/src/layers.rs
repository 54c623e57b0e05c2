//! What every workload shares: the checked outcome of one design
//! point, the serial reference it is compared with, and the traced
//! replay of a point through the layer calls that
//! `explore::evaluate_with_cache` composes.

use memx_core::alloc::{assign_with_stats_cached, AllocOptions, Organization};
use memx_core::cache::{distribute_cached, EvalCache};
use memx_core::explore::{self, CostReport, EvaluateOptions};
use memx_core::{macp, ExploreError};
use memx_ir::AppSpec;
use memx_memlib::{CostBreakdown, MemLibrary};

use crate::trace::Tracer;

/// Engine and allocation worker budget, pinned so that no step resolves
/// "auto" to the host's core count. Allocation runs on the engine's
/// per-point share of it.
pub const WORKERS: usize = 2;

/// The deterministic part of a design point's result: what the
/// benchmark checks against the reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The three cost figures, the organization and the critical path.
    Ok {
        /// Area and power.
        cost: CostBreakdown,
        /// Memories and the groups assigned to them.
        organization: Organization,
        /// Memory-access critical path.
        macp_cycles: u64,
    },
    /// An evaluation error (a too-tight budget, an infeasible
    /// assignment), which matches only the same error.
    Err(ExploreError),
}

impl Outcome {
    /// Keeps the checked fields of `result`, dropping the schedule.
    pub fn of(result: Result<CostReport, ExploreError>) -> Self {
        match result {
            Ok(r) => Outcome::Ok {
                cost: r.cost,
                organization: r.organization,
                macp_cycles: r.macp_cycles,
            },
            Err(e) => Outcome::Err(e),
        }
    }

    /// Keeps the checked fields of a borrowed report.
    pub fn from_report(r: &CostReport) -> Self {
        Outcome::Ok {
            cost: r.cost,
            organization: r.organization.clone(),
            macp_cycles: r.macp_cycles,
        }
    }
}

/// `options` with allocation pinned to the calling thread.
pub fn serial(options: &EvaluateOptions) -> EvaluateOptions {
    EvaluateOptions {
        cycle_budget: options.cycle_budget,
        alloc: AllocOptions {
            workers: 1,
            ..options.alloc.clone()
        },
    }
}

/// The reference result: serial, uncached `explore::evaluate`.
pub fn reference(spec: &AppSpec, lib: &MemLibrary, options: &EvaluateOptions) -> Outcome {
    Outcome::of(explore::evaluate(spec, lib, &serial(options)))
}

/// Replays one point serially through SCBD, allocation and MACP with a
/// span around each call, all children of `parent` and sharing `id`.
/// Allocation runs with one worker so that node counts repeat exactly.
/// With a cache, each SCBD and allocation span records whether the
/// cache served it (`hit`), and allocation node counters are recorded
/// only for searches that actually ran.
pub fn replay_point(
    tr: &mut Tracer,
    id: u64,
    parent: usize,
    spec: &AppSpec,
    lib: &MemLibrary,
    options: &EvaluateOptions,
    cache: Option<&EvalCache>,
) -> Result<CostReport, ExploreError> {
    let options = serial(options);
    let budget = options.cycle_budget.unwrap_or_else(|| spec.cycle_budget());

    let before = cache.map(EvalCache::stats);
    let s = tr.begin("scbd", id, Some(parent));
    let schedule = distribute_cached(spec, budget, cache);
    tr.end(s);
    let too_tight = matches!(schedule, Err(ExploreError::BudgetTooTight { .. }));
    tr.count(s, "too_tight", u64::from(too_tight));
    if let (Some(c), Some(b)) = (cache, before) {
        tr.count(s, "hit", c.stats().scbd_hits - b.scbd_hits);
    }
    let schedule = schedule?;

    let before = cache.map(EvalCache::stats);
    let a = tr.begin("alloc", id, Some(parent));
    let assigned = assign_with_stats_cached(spec, &schedule, lib, &options.alloc, cache);
    tr.end(a);
    let hit = match (cache, before) {
        (Some(c), Some(b)) => c.stats().alloc_hits - b.alloc_hits,
        _ => 0,
    };
    if cache.is_some() {
        tr.count(a, "hit", hit);
    }
    let (organization, stats) = assigned?;
    if hit == 0 {
        tr.count(a, "onchip_nodes", stats.bb_nodes);
        tr.count(a, "offchip_nodes", stats.off_chip_bb_nodes);
        tr.count(a, "sweep_skips", stats.sweep_skips);
        tr.count(a, "dominance_cuts", stats.off_chip_dominance_cuts);
        tr.count(
            a,
            "exhausted",
            u64::from(stats.bb_nodes >= options.alloc.node_limit),
        );
    }

    let m = tr.begin("macp", id, Some(parent));
    let report = macp::analyze(spec);
    tr.end(m);

    Ok(CostReport {
        label: spec.name().to_owned(),
        cost: organization.cost,
        organization,
        schedule,
        macp_cycles: report.total_cycles,
        alloc_stats: stats,
    })
}
