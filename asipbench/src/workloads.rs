//! The four benchmark workloads: how each builds its cells from the seed,
//! what one measured pass does, and the per-cell records the correctness
//! digest folds.
//!
//! * `grid_cold` — every preset × every kernel through
//!   `Session::eval_batch` on a fresh memory-only cache per batch, in a
//!   seed-shuffled request order. Every stage computes.
//! * `grid_warm` — the same cells against a session whose memory tier was
//!   filled during set-up, so every stage hits.
//! * `dse_ise` — `dse::explore_sampled` over a space wider than
//!   `SearchSpace::default()` (templates × register files × multiplier
//!   latencies × an ISE budget ladder including 0) on all kernels, with a
//!   fresh cache per pass. The seed chooses the points, stratified so that
//!   every (template, register file) pair contributes one point and every
//!   template one point without ISE and two with it.
//! * `sim_long` — loop kernels of over a million simulated cycles per cell,
//!   compiled in set-up; each pass only simulates (`run_artifact`) on a
//!   fresh cache. Expected streams come from the unoptimized IR
//!   interpreter, never from the simulator.

use asip_core::dse::{self, SearchSpace};
use asip_core::{
    ArtifactCache, CacheConfig, CacheStats, CompiledArtifact, EvalOutcome, EvalRequest, EvalRun,
    Session, Toolchain, ToolchainError, WorkloadRun,
};
use asip_ir::interp::{Interp, InterpOptions};
use asip_isa::codec::Codec;
use asip_isa::MachineDescription;
use asip_sim::{SimEngine, SimOptions};
use asip_workloads::{AppArea, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Worker threads of every session the benchmark builds.
pub const THREADS: usize = 2;

/// Memory-tier budget of every cache the benchmark builds (the library
/// default, pinned so `ASIP_CACHE_BYTES` cannot change it).
pub const CACHE_BYTES: u64 = asip_core::cache::DEFAULT_CACHE_BYTES;

/// How many batches one `grid_warm` pass evaluates. One warm batch takes
/// ~20 ms; 24 make a pass of ~0.45 s, so a 20-s run holds ~45 passes and
/// `pass_s_tail` (ten passes beyond it) sits near p75. With more, shorter
/// passes the tail moved up to p90 and above, where a few seconds of host
/// interference in some runs and not in others swung it by 25%.
const WARM_BATCHES: usize = 24;

/// How many batches, each on a fresh cache, one `grid_cold` pass
/// evaluates: one cold batch takes ~0.2 s, so two keep its pass count near
/// the other workloads' (`dse_ise` and `sim_long` batches take 0.3–0.5 s).
const COLD_BATCHES: usize = 2;

/// The register-file sizes `dse_ise` stratifies by: the axis that moves
/// simulated cycles most (16 registers spill, nearly doubling cycles), so
/// every template is explored at each size.
const DSE_REGISTERS: [u16; 3] = [16, 32, 64];

/// The nonzero rungs of `dse_ise`'s ISE budget ladder (adder-equivalents);
/// the ladder's bottom rung is 0, no custom operations.
const DSE_ISE_BUDGETS: [f64; 3] = [8.0, 16.0, 32.0];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GridCold,
    GridWarm,
    DseIse,
    SimLong,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::GridCold, Kind::GridWarm, Kind::DseIse, Kind::SimLong];

    pub fn name(self) -> &'static str {
        match self {
            Kind::GridCold => "grid_cold",
            Kind::GridWarm => "grid_warm",
            Kind::DseIse => "dse_ise",
            Kind::SimLong => "sim_long",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_a51b_0bec_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The session every workload measures: two workers, the default engine
/// and superblock threshold, a memory-only cache of the default budget, no
/// disk tier, no span recording. Shards and fault injection belong to the
/// serve layer, which the benchmark never enters.
pub fn pinned_session() -> Session {
    let session = Session::builder()
        .threads(THREADS)
        .sim_engine(SimEngine::default())
        .sb_threshold(SimOptions::default().sb_threshold)
        .cache(Arc::new(ArtifactCache::with_config(CacheConfig {
            byte_budget: CACHE_BYTES,
            hash_mask: !0,
            disk: None,
        })))
        .build();
    asip_obs::set_enabled(false);
    session
}

/// One cell: a kernel on a machine, with an ISE budget (0 = none) and, for
/// `sim_long`, the artifact compiled in set-up.
#[derive(Debug, Clone)]
pub struct Cell {
    pub workload: Workload,
    pub machine: MachineDescription,
    pub budget: f64,
    pub artifact: Option<CompiledArtifact>,
}

impl Cell {
    fn new(workload: Workload, machine: MachineDescription, budget: f64) -> Cell {
        Cell {
            workload,
            machine,
            budget,
            artifact: None,
        }
    }

    /// The digest's sort key: (machine, ISE budget, kernel).
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}",
            self.machine.name, self.budget, self.workload.name
        )
    }

    pub fn request(&self) -> EvalRequest {
        EvalRequest::new(self.workload.clone(), self.machine.clone()).with_ise(self.budget)
    }
}

/// One cell's outcome as the correctness digest sees it.
#[derive(Debug, Clone)]
pub struct Record {
    pub key: String,
    /// FNV-1a of the outcome's codec bytes: the output stream, every
    /// `SimResult` counter, compile statistics, code bytes and, for
    /// evaluations, the evaluated machine and ISE report.
    pub hash: u64,
    pub cycles: u64,
    pub code_bytes: u32,
    pub error: Option<String>,
}

impl Record {
    pub fn from_eval(key: String, result: &Result<EvalRun, ToolchainError>) -> Record {
        match result {
            Ok(run) => Record::ok(key, &run.encode_to_vec(), &run.run),
            Err(e) => Record::failed(key, e),
        }
    }

    pub fn from_run(key: String, result: &Result<WorkloadRun, ToolchainError>) -> Record {
        match result {
            Ok(run) => Record::ok(key, &run.encode_to_vec(), run),
            Err(e) => Record::failed(key, e),
        }
    }

    fn ok(key: String, bytes: &[u8], run: &WorkloadRun) -> Record {
        Record {
            key,
            hash: crate::stats::Fnv::default().bytes(bytes).finish(),
            cycles: run.sim.cycles,
            code_bytes: run.code_bytes,
            error: None,
        }
    }

    fn failed(key: String, e: &ToolchainError) -> Record {
        Record {
            key,
            hash: 0,
            cycles: 0,
            code_bytes: 0,
            error: Some(e.to_string()),
        }
    }
}

/// Fold `records` (sorted by key) into one digest.
pub fn digest(records: &[Record]) -> u64 {
    records
        .iter()
        .fold(crate::stats::Fnv::default(), |h, r| {
            h.bytes(r.key.as_bytes()).bytes(&r.hash.to_le_bytes())
        })
        .finish()
}

/// The first batch of batch-major `records` (`cells` per batch). Every
/// later record whose outcome differs from its first-batch twin adds a
/// failure.
pub fn fold_batches(
    mut records: Vec<Record>,
    cells: usize,
    failures: &mut Vec<String>,
) -> Vec<Record> {
    let later = records.split_off(cells.min(records.len()));
    for (i, r) in later.iter().enumerate() {
        let first = &records[i % cells];
        if r.hash != first.hash || r.error != first.error {
            failures.push(format!(
                "{}: outcome differs between batches of one pass",
                r.key
            ));
        }
    }
    records
}

/// Check one pass's records (sorted by key) against the first pass's.
/// Each failed cell, and each cell whose outcome differs from the first
/// pass's, adds one failure. The first pass checked becomes the reference.
pub fn check_pass(
    what: &str,
    records: Vec<Record>,
    reference: &mut Option<Vec<Record>>,
    failures: &mut Vec<String>,
) {
    for r in &records {
        if let Some(e) = &r.error {
            failures.push(format!("{what}: {}: {e}", r.key));
        }
    }
    let Some(first) = reference else {
        *reference = Some(records);
        return;
    };
    if first.len() != records.len() {
        failures.push(format!(
            "{what}: {} cells where the first pass had {}",
            records.len(),
            first.len()
        ));
    }
    for (a, b) in first.iter().zip(&records) {
        if b.error.is_none() && (a.key != b.key || a.hash != b.hash) {
            failures.push(format!(
                "{what}: {}: outcome differs from the first pass",
                b.key
            ));
        }
    }
}

/// `f` over `items` on `threads` scoped workers pulling from a shared
/// cursor (the `Session::eval_batch` discipline); results come back in
/// item order. `f` also receives the worker index.
pub fn par_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..threads.clamp(1, items.len().max(1)) {
            let (slots, cursor, f) = (&slots, &cursor, &f);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(worker, &items[i]);
                slots.lock().expect("no worker panicked holding the slots")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panicked holding the slots")
        .into_iter()
        .map(|r| r.expect("every slot is filled by a worker"))
        .collect()
}

/// What one measured pass produced.
#[derive(Debug)]
pub struct Pass {
    /// Wall seconds of the measured operation.
    pub wall_s: f64,
    /// One record per cell (sorted by key); later batches of the pass
    /// are checked against these.
    pub records: Vec<Record>,
    /// Cell evaluations the pass made, every batch counted.
    pub evaluated: u64,
    /// Stage hits and misses the pass caused.
    pub hits: u64,
    pub misses: u64,
    /// Memory-tier bytes resident after the pass.
    pub resident_bytes: u64,
    /// Failures outside the cell records (e.g. a skipped design point).
    pub extra_failures: Vec<String>,
}

/// The `dse_ise` search: one single-point sample, each with its own seed,
/// per (template, register file, ISE budget) sub-space of multiplier
/// latencies.
#[derive(Debug, Clone)]
struct Dse {
    spaces: Vec<(SearchSpace, u64)>,
    kernels: Vec<Workload>,
}

/// A workload ready to measure: its cells and the session a pass uses.
#[derive(Debug)]
pub struct Prepared {
    pub kind: Kind,
    pub session: Session,
    /// Cells in request order.
    pub cells: Vec<Cell>,
    dse: Option<Dse>,
}

impl Prepared {
    /// Build the workload's inputs from `seed`, then run one untimed
    /// warm-up pass (for `grid_warm`, the pass that fills the cache).
    pub fn setup(kind: Kind, seed: u64) -> Prepared {
        let session = pinned_session();
        let mut rng = Rng::new(seed);
        let (cells, dse) = match kind {
            Kind::GridCold | Kind::GridWarm => {
                let mut cells = grid_cells();
                rng.shuffle(&mut cells);
                (cells, None)
            }
            Kind::DseIse => {
                let dse = dse_search(&mut rng);
                let cells = dse_cells(&session, &dse);
                (cells, Some(dse))
            }
            Kind::SimLong => (sim_long_cells(&session, &mut rng), None),
        };
        let prepared = Prepared {
            kind,
            session,
            cells,
            dse,
        };
        // Warm-up: lazy initialisation stays out of the measured passes;
        // on `grid_warm` this fills the session's memory tier.
        let _ = prepared.run(1);
        prepared
    }

    /// The session one batch measures against: the warm one for
    /// `grid_warm`, a fresh empty cache otherwise.
    pub fn batch_session(&self) -> Session {
        match self.kind {
            Kind::GridWarm => self.session.clone(),
            _ => self.session.fresh_cache(),
        }
    }

    /// One measured pass.
    pub fn pass(&self) -> Pass {
        self.run(self.batches())
    }

    /// A pass that evaluates the cells `batches` times over, each batch on
    /// a `batch_session` made and dropped outside the timed part; the
    /// pass's wall time is the sum of its batches'.
    fn run(&self, batches: usize) -> Pass {
        let mut pass = Pass {
            wall_s: 0.0,
            records: Vec::with_capacity(self.cells.len() * batches),
            evaluated: (self.cells.len() * batches) as u64,
            hits: 0,
            misses: 0,
            resident_bytes: 0,
            extra_failures: Vec::new(),
        };
        for _ in 0..batches {
            let session = self.batch_session();
            let before = session.cache_stats();
            let (wall, after, mut records) = self.batch(&session, &mut pass.extra_failures);
            pass.wall_s += wall;
            pass.hits += after.hits() - before.hits();
            pass.misses += after.misses() - before.misses();
            pass.resident_bytes = after.resident_bytes;
            pass.records.append(&mut records);
        }
        let records = std::mem::take(&mut pass.records);
        pass.records = fold_batches(records, self.cells.len(), &mut pass.extra_failures);
        pass.records.sort_by(|a, b| a.key.cmp(&b.key));
        pass
    }

    /// One batch on `session`: its wall seconds, the cache statistics right
    /// after the timed part, and one record per cell in cell order.
    fn batch(
        &self,
        session: &Session,
        failures: &mut Vec<String>,
    ) -> (f64, CacheStats, Vec<Record>) {
        match self.kind {
            Kind::GridCold | Kind::GridWarm => {
                let reqs = self.requests();
                let t = Instant::now();
                let outcomes = session.eval_batch(&reqs);
                let wall = t.elapsed().as_secs_f64();
                (wall, session.cache_stats(), self.eval_records(&outcomes))
            }
            Kind::DseIse => {
                let dse = self.dse.as_ref().expect("dse_ise carries its search");
                let t = Instant::now();
                let explorations = explore(session, dse);
                let wall = t.elapsed().as_secs_f64();
                let after = session.cache_stats();
                let sampled: Vec<String> = explorations
                    .iter()
                    .flat_map(|ex| {
                        ex.points
                            .iter()
                            .map(|p| point_key(&p.machine.name, p.ise_budget))
                    })
                    .collect();
                failures.extend(
                    explorations
                        .iter()
                        .flat_map(|ex| ex.skipped.iter().map(|s| s.to_string())),
                );
                if sampled != point_keys(&self.cells) {
                    failures.push("sampled design points differ from set-up".to_string());
                }
                // Untimed replay for the digest: every cell hits the
                // artifacts this pass just computed.
                let outcomes = session.eval_batch(&self.requests());
                (wall, after, self.eval_records(&outcomes))
            }
            Kind::SimLong => {
                let tc = session.toolchain();
                let t = Instant::now();
                let runs = par_map(THREADS, &self.cells, |_, c| simulate(tc, c));
                let wall = t.elapsed().as_secs_f64();
                let records = self
                    .cells
                    .iter()
                    .zip(&runs)
                    .map(|(c, r)| Record::from_run(c.key(), r))
                    .collect();
                (wall, session.cache_stats(), records)
            }
        }
    }

    /// How many batches one pass evaluates.
    pub fn batches(&self) -> usize {
        match self.kind {
            Kind::GridWarm => WARM_BATCHES,
            Kind::GridCold => COLD_BATCHES,
            Kind::DseIse | Kind::SimLong => 1,
        }
    }

    fn requests(&self) -> Vec<EvalRequest> {
        self.cells.iter().map(Cell::request).collect()
    }

    /// Records of one batch's `outcomes`, in cell order.
    fn eval_records(&self, outcomes: &[EvalOutcome]) -> Vec<Record> {
        self.cells
            .iter()
            .zip(outcomes)
            .map(|(c, o)| Record::from_eval(c.key(), &o.result))
            .collect()
    }
}

/// `sim_long`'s measured operation on one cell.
pub fn simulate(tc: &Toolchain, cell: &Cell) -> Result<WorkloadRun, ToolchainError> {
    let art = cell
        .artifact
        .as_ref()
        .expect("sim_long cells are compiled in set-up");
    tc.run_artifact(&cell.workload, &cell.machine, art)
}

fn grid_cells() -> Vec<Cell> {
    let kernels = asip_workloads::all();
    MachineDescription::all_presets()
        .into_iter()
        .flat_map(|m| {
            kernels
                .iter()
                .map(move |w| Cell::new(w.clone(), m.clone(), 0.0))
        })
        .collect()
}

fn dse_search(rng: &mut Rng) -> Dse {
    let mut spaces = Vec::new();
    for t in SearchSpace::default().templates {
        // One register file per template runs without ISE and two with an
        // ISE budget, so every seed evaluates as many ISE points.
        let ise = |rng: &mut Rng| DSE_ISE_BUDGETS[rng.below(3) as usize];
        let mut budgets = [0.0, ise(rng), ise(rng)];
        rng.shuffle(&mut budgets);
        for (regs, budget) in DSE_REGISTERS.into_iter().zip(budgets) {
            let space = SearchSpace {
                templates: vec![t.clone()],
                registers: vec![regs],
                mul_latencies: vec![1, 2, 3],
                ise_budgets: vec![budget],
            };
            spaces.push((space, rng.next_u64()));
        }
    }
    Dse {
        spaces,
        kernels: asip_workloads::all(),
    }
}

fn explore(session: &Session, dse: &Dse) -> Vec<dse::Exploration> {
    dse.spaces
        .iter()
        .map(|(space, seed)| dse::explore_sampled(session, space, &dse.kernels, 1, *seed))
        .collect()
}

fn point_key(machine: &str, budget: f64) -> String {
    format!("{machine}|{budget}")
}

/// The distinct design points of `cells`, in first-seen order.
fn point_keys(cells: &[Cell]) -> Vec<String> {
    let mut keys: Vec<String> = Vec::new();
    for c in cells {
        let k = point_key(&c.machine.name, c.budget);
        if keys.last() != Some(&k) {
            keys.push(k);
        }
    }
    keys
}

/// The cells `dse_ise` evaluates: the points `explore_sampled` picks,
/// each × every kernel, in the order `explore_points` requests them.
fn dse_cells(session: &Session, dse: &Dse) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (space, seed) in &dse.spaces {
        let probe =
            dse::explore_sampled(&session.fresh_cache(), space, &dse.kernels[..1], 1, *seed);
        let machines = space.machines();
        for p in &probe.points {
            let base = machines
                .iter()
                .find(|m| m.name == p.machine.name)
                .expect("sampled point comes from the space");
            for w in &dse.kernels {
                cells.push(Cell::new(w.clone(), base.clone(), p.ise_budget));
            }
        }
    }
    cells
}

/// A loop kernel in the shape of the sim-core synthetics, with a seeded
/// trip count (`n` plus up to 1/16 more) and seeded initial values. The
/// base counts give every cell at least a million simulated cycles on
/// every `sim_long` machine.
fn loop_kernel(
    rng: &mut Rng,
    name: &str,
    source: &str,
    n: i32,
    inputs: Vec<(&str, usize)>,
) -> Workload {
    let n = n + (rng.below(u64::from(n.unsigned_abs() / 16)) as i32);
    let inputs = inputs
        .into_iter()
        .map(|(g, len)| {
            let data = (0..len)
                .map(|_| (rng.below(1 << 16) as i32) - (1 << 15))
                .collect();
            (g.to_string(), data)
        })
        .collect();
    Workload {
        name: name.to_string(),
        area: AppArea::Control,
        description: "long-running simulation kernel".to_string(),
        source: source.to_string(),
        args: vec![n],
        inputs,
        expected: Vec::new(),
    }
}

fn loop_kernels(rng: &mut Rng) -> Vec<Workload> {
    vec![
        loop_kernel(
            rng,
            "aluchain",
            r#"
            int init[2];
            void main(int n) {
                int a = init[0]; int b = init[1]; int s = 0; int i;
                for (i = 0; i < n; i++) {
                    a = a * 3 + b;
                    b = b ^ (a >> 2);
                    s = s + min(a, b) - max(b, i);
                    s = s ^ (s << 1);
                }
                emit(s);
            }
            "#,
            160_000,
            vec![("init", 2)],
        ),
        loop_kernel(
            rng,
            "memstream",
            r#"
            int buf[512];
            void main(int n) {
                int i; int s = 0;
                for (i = 0; i < n; i++) {
                    int k = i & 511;
                    buf[k] = buf[(k + 67) & 511] + i;
                    s += buf[k] >> 3;
                }
                emit(s);
            }
            "#,
            100_000,
            vec![("buf", 512)],
        ),
        loop_kernel(
            rng,
            "tightloop",
            r#"
            int init[1];
            void main(int n) {
                int s = init[0]; int i;
                for (i = 0; i < n; i++) { s += i ^ (s >> 1); }
                emit(s);
            }
            "#,
            235_000,
            vec![("init", 1)],
        ),
        loop_kernel(
            rng,
            "tightbiased",
            r#"
            int init[1];
            void main(int n) {
                int s = init[0]; int i;
                for (i = 0; i < n; i++) {
                    if ((i & 15) != 0) { s += i; } else { s ^= (s << 3) + 1; }
                }
                emit(s);
            }
            "#,
            240_000,
            vec![("init", 1)],
        ),
        loop_kernel(
            rng,
            "tightnested",
            r#"
            int init[1];
            void main(int n) {
                int s = init[0]; int i; int j;
                for (i = 0; i < n; i++) {
                    for (j = 0; j < 8; j++) { s += (i ^ j) & 255; }
                }
                emit(s);
            }
            "#,
            28_000,
            vec![("init", 1)],
        ),
    ]
}

/// The expected stream of `w`: the *unoptimized* IR interpreter's output.
fn interpret_unoptimized(tc: &Toolchain, w: &Workload) -> Vec<i32> {
    let module = tc.parse(&w.source).expect("sim_long kernels parse");
    let mut interp = Interp::new(&module, InterpOptions::default());
    for (name, data) in &w.inputs {
        interp.write_global(name, data);
    }
    interp
        .run("main", &w.args)
        .expect("sim_long kernels interpret")
        .output
}

/// The machines `sim_long` simulates on: two VLIW and two scalar presets.
fn sim_long_machines() -> Vec<MachineDescription> {
    vec![
        MachineDescription::ember1(),
        MachineDescription::ember4(),
        MachineDescription::scalar1(),
        MachineDescription::scalar2(),
    ]
}

fn sim_long_cells(session: &Session, rng: &mut Rng) -> Vec<Cell> {
    let tc = session.toolchain();
    let mut cells = Vec::new();
    for mut w in loop_kernels(rng) {
        w.expected = interpret_unoptimized(tc, &w);
        for m in sim_long_machines() {
            let module = tc.frontend(&w.source).expect("sim_long kernels optimize");
            let profile = tc
                .profile(&module, &w.inputs, &w.args)
                .expect("sim_long kernels profile");
            let guided = tc.profile_guided.then_some(&profile);
            let art = tc
                .compile_for(&module, &m, guided)
                .expect("sim_long kernels compile");
            let mut cell = Cell::new(w.clone(), m, 0.0);
            cell.artifact = Some(art);
            cells.push(cell);
        }
    }
    cells
}
