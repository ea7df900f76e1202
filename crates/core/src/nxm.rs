//! The N×M validation grid — §3.1's testing discipline, literally:
//! *"Testing methodology uses architectures as if they were test programs
//! (thus N×M tests)."*
//!
//! Every machine in the family is crossed with every workload; each cell
//! compiles, simulates and checks the golden output. A single failing cell
//! fails the whole grid, which is what keeps "mass customization"
//! trustworthy.
//!
//! The grid is a thin layer over [`Session::eval_batch`]: cells execute in
//! parallel on the session's worker pool, share the session's
//! [`ArtifactCache`](crate::cache::ArtifactCache) (each workload's
//! parse/optimize/profile half runs once no matter how many machines cross
//! it), and report through the typed
//! [`ToolchainError`](crate::pipeline::ToolchainError).

use crate::session::{EvalOutcome, EvalRequest, Session};
use asip_isa::MachineDescription;
use asip_workloads::Workload;
use std::collections::HashMap;
use std::fmt;

/// One cell of the grid.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Machine name.
    pub machine: String,
    /// Workload name.
    pub workload: String,
    /// `Ok(cycles)` or the typed failure.
    pub outcome: Result<u64, crate::pipeline::ToolchainError>,
}

/// The completed grid.
///
/// Cells are stored row-major (machine-major) and indexed by name maps, so
/// [`Grid::cell`] and [`Grid::cycles`] are O(1). Grids are assembled
/// through [`Grid::from_cells`] or [`Grid::from_outcomes`] (which build the
/// index); cell outcomes may be mutated in place, but the machine/workload
/// layout is fixed at construction.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Machine names (rows).
    pub machines: Vec<String>,
    /// Workload names (columns).
    pub workloads: Vec<String>,
    /// All cells, row-major.
    pub cells: Vec<Cell>,
    /// Number of worker threads the run used.
    pub parallelism: usize,
    machine_index: HashMap<String, usize>,
    workload_index: HashMap<String, usize>,
}

impl Grid {
    /// Assemble a grid from row-major `cells`, building the O(1) name
    /// index. `cells.len()` must be `machines.len() × workloads.len()`.
    pub fn from_cells(
        machines: Vec<String>,
        workloads: Vec<String>,
        cells: Vec<Cell>,
        parallelism: usize,
    ) -> Grid {
        assert_eq!(
            cells.len(),
            machines.len() * workloads.len(),
            "grid cells must be a full row-major cross product"
        );
        let machine_index = machines
            .iter()
            .enumerate()
            .map(|(i, m)| (m.clone(), i))
            .collect();
        let workload_index = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i))
            .collect();
        Grid {
            machines,
            workloads,
            cells,
            parallelism,
            machine_index,
            workload_index,
        }
    }

    /// Assemble a grid from outcomes in [`EvalRequest::grid`] order, however
    /// they were evaluated (one session's batch, or merged from shards).
    pub fn from_outcomes(
        machines: &[MachineDescription],
        workloads: &[Workload],
        outcomes: Vec<EvalOutcome>,
        parallelism: usize,
    ) -> Grid {
        let cells = outcomes
            .into_iter()
            .map(|o| Cell {
                machine: o.machine,
                workload: o.workload,
                outcome: o.result.map(|r| r.run.sim.cycles),
            })
            .collect();
        Grid::from_cells(
            machines.iter().map(|m| m.name.clone()).collect(),
            workloads.iter().map(|w| w.name.clone()).collect(),
            cells,
            parallelism,
        )
    }

    /// Whether every cell passed.
    pub fn all_pass(&self) -> bool {
        self.cells.iter().all(|c| c.outcome.is_ok())
    }

    /// Number of failing cells.
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_err()).count()
    }

    /// The full outcome for a (machine, workload) pair, in O(1).
    pub fn cell(&self, machine: &str, workload: &str) -> Option<&Cell> {
        let row = *self.machine_index.get(machine)?;
        let col = *self.workload_index.get(workload)?;
        self.cells.get(row * self.workloads.len() + col)
    }

    /// Cycles for a (machine, workload) pair, if it passed. O(1).
    pub fn cycles(&self, machine: &str, workload: &str) -> Option<u64> {
        self.cell(machine, workload)
            .and_then(|c| c.outcome.as_ref().ok().copied())
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<14}", "machine\\app")?;
        for w in &self.workloads {
            write!(f, "{w:>10}")?;
        }
        writeln!(f)?;
        for m in &self.machines {
            write!(f, "{m:<14}")?;
            for w in &self.workloads {
                match self.cell(m, w).map(|c| &c.outcome) {
                    Some(Ok(cycles)) => write!(f, "{cycles:>10}")?,
                    Some(Err(_)) => write!(f, "{:>10}", "FAIL")?,
                    None => write!(f, "{:>10}", "-")?,
                }
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "{} cells, {} failures",
            self.cells.len(),
            self.failures()
        )
    }
}

/// Run the full grid on the session's worker pool.
pub fn run_grid(
    session: &Session,
    machines: &[MachineDescription],
    workloads: &[Workload],
) -> Grid {
    let reqs = EvalRequest::grid(machines, workloads);
    let parallelism = session.threads().min(reqs.len()).max(1);
    Grid::from_outcomes(machines, workloads, session.eval_batch(&reqs), parallelism)
}

/// Run the full grid on `threads` workers (clamped to the cell count; `0`
/// behaves as `1`), sharing the session's cache.
pub fn run_grid_threaded(
    session: &Session,
    machines: &[MachineDescription],
    workloads: &[Workload],
    threads: usize,
) -> Grid {
    run_grid(&session.with_threads(threads), machines, workloads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ToolchainError;

    #[test]
    fn small_grid_passes() {
        let session = Session::builder().build();
        let machines = vec![MachineDescription::ember1(), MachineDescription::ember4()];
        let workloads: Vec<Workload> = ["crc32", "sobel"]
            .iter()
            .map(|n| asip_workloads::by_name(n).unwrap())
            .collect();
        let grid = run_grid(&session, &machines, &workloads);
        assert!(grid.all_pass(), "\n{grid}");
        assert_eq!(grid.cells.len(), 4);
        // Wider machine at least as fast on every kernel.
        for w in &grid.workloads {
            let c1 = grid.cycles("ember1", w).unwrap();
            let c4 = grid.cycles("ember4", w).unwrap();
            assert!(c4 <= c1, "{w}: ember4 {c4} vs ember1 {c1}");
        }
        // The O(1) index agrees with the row-major layout.
        let cell = grid.cell("ember4", "sobel").unwrap();
        assert_eq!(cell.machine, "ember4");
        assert_eq!(cell.workload, "sobel");
        assert!(grid.cell("nope", "sobel").is_none());
        assert!(grid.cell("ember4", "nope").is_none());
    }

    #[test]
    fn scalar_machines_are_first_class_grid_rows() {
        let session = Session::builder().build();
        let machines = vec![
            MachineDescription::scalar1(),
            MachineDescription::scalar2(),
            MachineDescription::ember4(),
        ];
        let workloads: Vec<Workload> = ["crc32", "fir"]
            .iter()
            .map(|n| asip_workloads::by_name(n).unwrap())
            .collect();
        let grid = run_grid(&session, &machines, &workloads);
        assert!(grid.all_pass(), "\n{grid}");
        for w in &grid.workloads {
            let s1 = grid.cycles("scalar1", w).unwrap();
            let s2 = grid.cycles("scalar2", w).unwrap();
            assert!(s2 <= s1, "{w}: dual issue slower? {s2} vs {s1}");
        }
    }

    #[test]
    fn parallel_grid_matches_serial_grid() {
        let session = Session::builder().build();
        let machines = vec![
            MachineDescription::ember1(),
            MachineDescription::ember2(),
            MachineDescription::ember4(),
        ];
        let workloads: Vec<Workload> = ["fir", "crc32", "rle"]
            .iter()
            .map(|n| asip_workloads::by_name(n).unwrap())
            .collect();
        let serial = run_grid_threaded(&session.fresh_cache(), &machines, &workloads, 1);
        let parallel = run_grid_threaded(&session.fresh_cache(), &machines, &workloads, 4);
        assert_eq!(serial.parallelism, 1);
        assert_eq!(parallel.parallelism, 4);
        assert!(serial.all_pass() && parallel.all_pass());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.outcome, b.outcome, "{}/{}", a.machine, a.workload);
        }
    }

    #[test]
    fn grid_shares_front_half_across_machines() {
        let session = Session::builder().build().fresh_cache();
        let machines = vec![
            MachineDescription::ember1(),
            MachineDescription::ember2(),
            MachineDescription::ember4(),
        ];
        let workloads = vec![asip_workloads::by_name("median").unwrap()];
        // Serial first pass for deterministic counters.
        let grid = run_grid_threaded(&session, &machines, &workloads, 1);
        assert!(grid.all_pass(), "\n{grid}");
        let stats = session.cache_stats();
        // One workload, three machines: parse/optimize/profile computed for
        // the first cell only; the other two cells reuse the front half.
        assert_eq!(stats.optimize.misses, 1, "{stats}");
        assert_eq!(stats.optimize.hits, 2, "{stats}");
        assert_eq!(stats.profile.misses, 1, "{stats}");
        assert_eq!(stats.profile.hits, 2, "{stats}");
        assert_eq!(stats.compile.misses, 3, "{stats}");
        assert_eq!(stats.compile.hits, 0, "{stats}");
        // Re-running the identical grid in parallel is all cache hits —
        // no stage recomputes, only simulation runs.
        let again = run_grid(&session, &machines, &workloads);
        assert!(again.all_pass());
        let warm = session.cache_stats();
        assert_eq!(warm.misses(), stats.misses(), "no new work on re-run");
        assert_eq!(warm.compile.hits, 3, "{warm}");
    }

    #[test]
    fn display_marks_failures() {
        let fail = Cell {
            machine: "m".into(),
            workload: "w".into(),
            outcome: Err(ToolchainError::Sim(asip_sim::SimError::CycleLimit)),
        };
        let mut grid = Grid::from_cells(vec!["m".into()], vec!["w".into()], vec![fail], 1);
        assert!(!grid.all_pass());
        let s = grid.to_string();
        assert!(s.contains("FAIL"));
        grid.cells[0].outcome = Ok(123);
        assert!(grid.to_string().contains("123"));
    }
}
