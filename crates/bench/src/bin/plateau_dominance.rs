//! Tie-plateau dominance vehicle: runs the off-chip partition search on
//! the synthetic [`experiments::plateau_spec`] instance —
//! [`experiments::PLATEAU_GROUPS`] bitwise-symmetric off-chip frame
//! stores whose partitions all price identically, so the lower bound
//! alone cannot prune — and prints the proven-optimal organization plus
//! the search-effort counters.
//!
//! The symmetric-group dominance rule is what prunes here: it collapses
//! the Bell-number tree to the nondecreasing choice vectors; its node
//! and cut counters go to stderr. Stdout is bit-identical for every
//! worker count, so the determinism matrix covers it like every other
//! binary; only the stderr counters move.

use memx_bench::experiments;
use memx_core::alloc::{assign_with_stats_cached, AllocOptions, MemoryKind};
use memx_core::scbd;

fn main() {
    let knobs = experiments::RunKnobs::from_env();
    let spec = experiments::plateau_spec(experiments::PLATEAU_GROUPS);
    let schedule = match scbd::distribute(&spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("plateau scheduling failed: {e}");
            std::process::exit(1);
        }
    };
    let lib = memx_memlib::MemLibrary::default_07um();
    let options = AllocOptions {
        workers: knobs.workers,
        node_limit: knobs
            .node_limit
            .unwrap_or_else(|| AllocOptions::default().node_limit),
        ..AllocOptions::default()
    };
    let cache = knobs.cache;
    let result = assign_with_stats_cached(&spec, &schedule, &lib, &options, cache.as_deref());
    let (org, stats) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("plateau allocation failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "Tie plateau: {} symmetric off-chip frame stores",
        experiments::PLATEAU_GROUPS
    );
    println!("{:<20} {:>8} {:>20}", "Memory", "groups", "off-chip power");
    println!("{:<20} {:>8} {:>20}", "", "", "[mW]");
    for (i, m) in org.memories.iter().enumerate() {
        let kind = match m.kind {
            MemoryKind::OnChip => "on-chip",
            MemoryKind::OffChip(_) => "off-chip",
        };
        println!(
            "{:<20} {:>8} {:>20.3}",
            format!("{kind} {i}"),
            m.groups.len(),
            m.cost.off_chip_power_mw
        );
    }
    println!(
        "total off-chip power [mW]: {:.3}",
        org.cost.off_chip_power_mw
    );
    experiments::print_alloc_stat_lines([stats]);
    experiments::print_cache_stat_lines(cache.as_deref());
}
