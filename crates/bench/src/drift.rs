//! E12 — ISA drift (§2.1–2.2): run a binary built for family member A on a
//! drifted member B via rebundling translation, and compare against a
//! native recompile.

use crate::util::{f2, Table};
use asip_core::CompiledArtifact;
use asip_dbt::{CodeCache, TRANSLATION_CYCLES_PER_OP};
use asip_isa::MachineDescription;
use asip_sim::Simulator;
use asip_workloads::Workload;

/// Run workload `w` from a given program image on machine `m`.
fn run_image(
    w: &Workload,
    m: &MachineDescription,
    prog: &asip_isa::VliwProgram,
) -> Result<u64, String> {
    let mut sim = Simulator::new(m, prog, Default::default()).map_err(|e| e.to_string())?;
    for (name, data) in &w.inputs {
        sim.write_global(name, data);
    }
    let r = sim.run(&w.args).map_err(|e| e.to_string())?;
    if r.output != w.expected {
        return Err("wrong output after translation".into());
    }
    Ok(r.cycles)
}

/// The drift experiment across several drifted family members.
pub fn isa_drift(workloads: &[Workload]) -> String {
    let tc = crate::session().toolchain();
    let a = MachineDescription::ember4();
    let drifted: Vec<MachineDescription> = vec![
        a.derive("drift-narrow2", |m| {
            m.slots.truncate(2);
        }),
        a.derive("drift-slowmem", |m| {
            m.lat_mem = 4;
            m.lat_mul = 3;
        }),
        a.derive("drift-compact", |m| {
            m.encoding = asip_isa::Encoding::Compact16;
        }),
    ];

    let mut t = Table::new(&[
        "workload",
        "target",
        "native A cyc",
        "translated cyc",
        "recompiled cyc",
        "xlat/native",
        "amortized@10 runs",
    ]);
    let mut worst_ratio: f64 = 0.0;
    for w in workloads {
        // Build once for A.
        let module = tc.frontend(&w.source).expect("frontend");
        let profile = tc.profile(&module, &w.inputs, &w.args).expect("profile");
        let compiled = tc.compile_for(&module, &a, Some(&profile));
        let Ok(CompiledArtifact::Vliw(prog_a)) = compiled else {
            panic!("compile A: {compiled:?}");
        };
        let prog_a = prog_a.program;
        let native_a = run_image(w, &a, &prog_a).expect("run A");

        for b in &drifted {
            let mut cache = CodeCache::new();
            let (tprog, stats) = {
                let (p, s) = cache
                    .get_or_translate(&w.name, &prog_a, &a, b)
                    .map(|e| (e.0.clone(), e.1))
                    .expect("translate");
                (p, s)
            };
            tprog.validate(b).expect("translated validates");
            let translated = run_image(w, b, &tprog).expect("run translated");
            let recompiled = match tc.compile_for(&module, b, Some(&profile)) {
                Ok(CompiledArtifact::Vliw(p)) => {
                    run_image(w, b, &p.program).expect("run recompiled")
                }
                other => panic!("recompile for {}: {other:?}", b.name),
            };
            let ratio = translated as f64 / recompiled as f64;
            worst_ratio = worst_ratio.max(ratio);
            let xlat_cost = stats.ops_in as u64 * TRANSLATION_CYCLES_PER_OP;
            let amortized =
                (translated as f64 * 10.0 + xlat_cost as f64) / (recompiled as f64 * 10.0);
            t.row(vec![
                w.name.clone(),
                b.name.clone(),
                native_a.to_string(),
                translated.to_string(),
                recompiled.to_string(),
                f2(ratio),
                f2(amortized),
            ]);
        }
    }
    format!(
        "E12: ISA drift — binaries for ember4 rebundled for drifted members\n\
         (translation cost model: {TRANSLATION_CYCLES_PER_OP} cycles per translated op)\n\n{}\nworst translated/recompiled ratio: {:.2}\n",
        t.render(),
        worst_ratio
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_report_correct_and_bounded() {
        let ws: Vec<Workload> = ["crc32"]
            .iter()
            .map(|n| asip_workloads::by_name(n).unwrap())
            .collect();
        let report = isa_drift(&ws);
        assert!(report.contains("drift-narrow2"), "{report}");
        // Translated code must be within a small factor of native recompile.
        let worst: f64 = report
            .lines()
            .find(|l| l.starts_with("worst"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(worst < 4.0, "translated code unreasonably slow\n{report}");
    }
}
