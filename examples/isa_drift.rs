//! ISA drift (paper §2.1–2.2): take a binary built for one family member
//! and run it, via rebundling translation with a code cache, on a member
//! that is — by 1999 standards — a different, incompatible ISA.
//!
//! Run with: `cargo run --release --example isa_drift`

use asip::core::{CompiledArtifact, Session};
use asip::dbt::{CodeCache, TRANSLATION_CYCLES_PER_OP};
use asip::isa::MachineDescription;
use asip::sim::Simulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::builder().build();
    let tc = session.toolchain();
    let w = asip::workloads::by_name("viterbi").expect("workload exists");

    // The shipped binary targets ember4.
    let a = MachineDescription::ember4();
    let module = tc.frontend(&w.source)?;
    let profile = tc.profile(&module, &w.inputs, &w.args)?;
    let CompiledArtifact::Vliw(binary) = tc.compile_for(&module, &a, Some(&profile))? else {
        unreachable!("ember4 is a VLIW member");
    };
    let binary = binary.program;

    // Years later the product line has drifted: narrower issue, slower
    // memory, denser encoding. Old binaries must still run (Barrier 1).
    // (3 slots, not fewer: viterbi's schedule contains a 3-register
    // parallel rotation, and a rotation can only be re-issued atomically —
    // a 2-wide member would need a scratch register and is rejected as a
    // SwapHazard.)
    let b = a.derive("ember-drift", |m| {
        m.slots.truncate(3);
        m.lat_mem = 3;
        m.encoding = asip::isa::Encoding::Compact16;
    });

    let mut cache = CodeCache::new();
    let (translated, stats) = cache.get_or_translate("viterbi", &binary, &a, &b)?.clone();
    println!(
        "translated {} bundles -> {} bundles ({} ops, {} intra-bundle hazards ordered)",
        stats.bundles_in, stats.bundles_out, stats.ops_in, stats.hazards_ordered
    );

    let run = |m: &MachineDescription,
               p: &asip::isa::VliwProgram|
     -> Result<u64, Box<dyn std::error::Error>> {
        let mut sim = Simulator::new(m, p, Default::default())?;
        for (name, data) in &w.inputs {
            sim.write_global(name, data);
        }
        let r = sim.run(&w.args)?;
        assert_eq!(r.output, w.expected, "drifted execution must stay correct");
        Ok(r.cycles)
    };

    let native_a = run(&a, &binary)?;
    let on_b = run(&b, &translated)?;
    let CompiledArtifact::Vliw(native_b) = tc.compile_for(&module, &b, Some(&profile))? else {
        unreachable!("a derivative of ember4 is a VLIW member");
    };
    let recompiled = run(&b, &native_b.program)?;

    let xlat = stats.ops_in as u64 * TRANSLATION_CYCLES_PER_OP;
    println!("native on ember4:        {native_a} cycles");
    println!(
        "translated on drifted:   {on_b} cycles ({:.2}x native recompile)",
        on_b as f64 / recompiled as f64
    );
    println!("recompiled on drifted:   {recompiled} cycles");
    println!(
        "one-time translation:    {xlat} cycles (amortized over 10 runs: {:.2}x)",
        (on_b as f64 * 10.0 + xlat as f64) / (recompiled as f64 * 10.0)
    );

    // Repeated launches hit the code cache.
    for _ in 0..4 {
        cache.get_or_translate("viterbi", &binary, &a, &b)?;
    }
    println!(
        "code cache: {} hits / {} misses",
        cache.hits(),
        cache.misses()
    );
    Ok(())
}
