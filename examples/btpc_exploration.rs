//! The full BTPC walkthrough: every decision step of the paper, with the
//! accurate memory-organization feedback after each.
//!
//! Run with `cargo run --release --example btpc_exploration`.

use memexplore::btpc::spec::{btpc_app_spec, measure_profile};
use memexplore::btpc::{CodecConfig, Decoder, Encoder, Image};
use memexplore::core::engine::{DesignPoint, Engine};
use memexplore::core::explore::{evaluate, EvaluateOptions};
use memexplore::core::hierarchy::{apply_hierarchy, HierarchyLayer};
use memexplore::core::structuring::merge;
use memexplore::core::{macp, pruning};
use memexplore::memlib::MemLibrary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Step 0: the application actually works. -----------------------
    let image = Image::synthetic_natural(128, 128, 0xB7C0DE);
    let encoder = Encoder::new(CodecConfig::lossless());
    let encoded = encoder.encode(&image)?;
    let decoded = Decoder::new(CodecConfig::lossless()).decode(&encoded)?;
    assert_eq!(decoded, image);
    println!(
        "BTPC lossless round trip on 128x128: {:.2}x compression\n",
        encoded.compression_ratio()
    );

    // ---- Step 1: profile + pruned specification (§4.1). ----------------
    let profile = measure_profile(128, 128, 0xB7C0DE);
    let btpc = btpc_app_spec(&profile, 1024, 1024, 20_000_000)?;
    println!(
        "Pruned spec: {} basic groups, {} loop nests, {:.1} M accesses/frame",
        btpc.spec.basic_groups().len(),
        btpc.spec.loop_nests().len(),
        btpc.spec.total_access_count() / 1e6
    );
    let pruned = pruning::prune(&btpc.spec, 0.0001)?;
    println!(
        "Pruning keeps {:.2}% of accesses ({} nests dropped)\n",
        pruned.retained_fraction * 100.0,
        pruned.dropped_nests.len()
    );

    // ---- Step 2: critical path analysis (§4.2). ------------------------
    let macp_report = macp::analyze(&btpc.spec);
    println!(
        "MACP: {:.1} M cycles against a {:.1} M budget — {}",
        macp_report.total_cycles as f64 / 1e6,
        macp_report.budget as f64 / 1e6,
        if macp_report.is_feasible() {
            "no loop transformations required (as in the paper)"
        } else {
            "loop transformations required!"
        }
    );
    println!();

    let lib = MemLibrary::default_07um();
    let engine = Engine::new(&lib);
    let point = |label, spec| DesignPoint::new(label, spec, EvaluateOptions::default());

    // ---- Step 3: basic group structuring (§4.3, Table 1). --------------
    let merged = merge(&btpc.spec, btpc.pyr, btpc.ridge)?;
    let t1 = engine.explore(&[
        point("No structuring", &btpc.spec),
        point("ridge and pyr merged", &merged.spec),
    ])?;
    print!("{}", t1.to_table("Step 3 — structuring feedback:"));
    println!("-> merging wins: fewer off-chip accesses relax the bandwidth.\n");

    // ---- Step 4: memory hierarchy (§4.4, Table 2). ----------------------
    let ylocal = HierarchyLayer::new("ylocal", 12, 2, 2.0);
    let with_layer = apply_hierarchy(&merged.spec, merged.new_group, &[ylocal])?;
    let t2 = engine.explore(&[
        point("No hierarchy", &merged.spec),
        point("ylocal layer", &with_layer.spec),
    ])?;
    print!("{}", t2.to_table("Step 4 — hierarchy feedback:"));
    println!("-> the 12-register layer removes the dual-port off-chip need.\n");

    // ---- Step 5: storage cycle budget (§4.5, Table 3). ------------------
    let full = evaluate(&with_layer.spec, &lib, &EvaluateOptions::default())?;
    let tight = evaluate(
        &with_layer.spec,
        &lib,
        &EvaluateOptions {
            cycle_budget: Some(20_000_000 - 3_133_568),
            ..EvaluateOptions::default()
        },
    )?;
    println!("Step 5 — budget feedback:");
    println!("  full budget:      {}", full.cost);
    println!("  15.7% reclaimed:  {}", tight.cost);
    println!("-> millions of cycles can move to the data path for free.\n");

    // ---- Step 6: final organization (§4.6, Table 4). ---------------------
    println!("Step 6 — final memory organization:");
    for mem in &tight.organization.memories {
        let names: Vec<&str> = mem
            .groups
            .iter()
            .map(|&g| with_layer.spec.group(g).name())
            .collect();
        println!(
            "  {:>9} words x {:>2} bit, {} port(s): {}",
            mem.words,
            mem.width,
            mem.ports,
            names.join(", ")
        );
    }
    println!("\nFinal cost: {}", tight.cost);
    Ok(())
}
