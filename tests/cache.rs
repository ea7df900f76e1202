//! Integration tests for the staged pipeline driver: the artifact cache and
//! the parallel N×M grid, exercised through the `asip` facade exactly as the
//! experiment binaries use them.

use asip::core::nxm::{run_grid, run_grid_threaded};
use asip::core::Session;
use asip::isa::MachineDescription;
use asip::workloads;

fn grid_3x6() -> (Vec<MachineDescription>, Vec<workloads::Workload>) {
    let machines = vec![
        MachineDescription::ember1(),
        MachineDescription::ember4(),
        MachineDescription::ember4x2(),
    ];
    let ws: Vec<_> = ["fir", "viterbi", "median", "crc32", "sort", "dither"]
        .iter()
        .map(|n| workloads::by_name(n).unwrap())
        .collect();
    (machines, ws)
}

/// The 3×6 subset runs on multiple workers and the shared artifact cache
/// takes hits already within the first pass (each workload's front half is
/// reused across the three machines).
#[test]
fn grid_3x6_runs_parallel_with_cache_hits() {
    let (machines, ws) = grid_3x6();
    let session = Session::builder().build();
    let grid = run_grid_threaded(&session, &machines, &ws, 4);
    assert!(grid.all_pass(), "\n{grid}");
    assert_eq!(grid.parallelism, 4);
    assert_eq!(grid.cells.len(), 18);

    let stats = session.cache_stats();
    assert_eq!(stats.compile.misses, 18, "every cell is a distinct compile");
    // 6 workloads × 3 machines: at least the serial-order reuse must show
    // up even under racing workers.
    assert!(stats.hits() > 0, "front halves must be shared: {stats}");
}

/// The second compile of every (workload, opt-config) pair is a cache hit,
/// and the cached cycle counts are identical to an uncached session's.
#[test]
fn second_grid_pass_hits_cache_with_identical_results() {
    let (machines, ws) = grid_3x6();
    let session = Session::builder().build();
    let first = run_grid(&session, &machines, &ws);
    assert!(first.all_pass(), "\n{first}");
    let cold = session.cache_stats();

    let second = run_grid(&session, &machines, &ws);
    assert!(second.all_pass(), "\n{second}");
    let warm = session.cache_stats();
    assert_eq!(
        warm.misses(),
        cold.misses(),
        "second pass recomputes nothing"
    );
    assert_eq!(
        warm.compile.hits,
        cold.compile.hits + 18,
        "all 18 second-pass compiles served from cache"
    );

    // Cached results equal a completely uncached session's results.
    let uncached = run_grid_threaded(&session.fresh_cache(), &machines, &ws, 1);
    for (a, b) in second.cells.iter().zip(&uncached.cells) {
        assert_eq!(a.machine, b.machine);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.outcome, b.outcome, "{}/{}", a.machine, a.workload);
    }
}

/// Repeated `run_workload` of the same pair: hit counters climb per stage
/// and the simulated cycles/output never change.
#[test]
fn repeated_run_workload_hits_and_is_stable() {
    let session = Session::builder().build();
    let w = workloads::by_name("fir").unwrap();
    let m = MachineDescription::ember4();
    let baseline = session.run_workload(&w, &m).unwrap();
    for i in 1..=3u64 {
        let run = session.run_workload(&w, &m).unwrap();
        assert_eq!(run.sim.cycles, baseline.sim.cycles, "pass {i}");
        assert_eq!(run.sim.output, baseline.sim.output, "pass {i}");
        let stats = session.cache_stats();
        assert_eq!(stats.optimize.hits, i);
        assert_eq!(stats.profile.hits, i);
        assert_eq!(stats.compile.hits, i);
    }
}
