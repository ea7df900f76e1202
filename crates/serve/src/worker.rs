//! The worker side of the shard executor: a process entry point that any
//! binary can delegate to when spawned with [`WORKER_FLAG`].
//!
//! A worker builds its [`Session`] entirely from the inherited
//! environment (`ASIP_CACHE_DIR` for the shared disk cache,
//! `ASIP_GRID_THREADS`, `ASIP_CACHE_BYTES`, …), binds an ephemeral port,
//! reports it on stdout as a single `LISTENING <addr>` line — the handshake
//! [`crate::shard::WorkerPool`] waits for — and then serves until a
//! shutdown RPC or a kill.

use crate::server::{EvalServer, ServerConfig};
use asip_core::session::Session;

/// Argument that switches a participating binary into worker mode.
pub const WORKER_FLAG: &str = "--worker";

/// Whether the current process was launched as a worker.
pub fn worker_requested() -> bool {
    std::env::args().any(|a| a == WORKER_FLAG)
}

/// If [`WORKER_FLAG`] is on the command line, run as a worker and never
/// return; otherwise do nothing. Call first thing in `main` of any binary
/// that wants [`crate::shard::run_grid`]'s spawn-self sharding.
pub fn try_worker_main() {
    if worker_requested() {
        worker_main();
    }
}

/// Serve evaluations until shutdown, on a session built from the
/// environment. Prints `LISTENING <addr>` on stdout once ready, then
/// never returns.
pub fn worker_main() -> ! {
    serve_worker(Session::builder().build())
}

/// [`worker_main`] with a caller-built session.
pub fn serve_worker(session: Session) -> ! {
    use std::io::Write;
    // Chaos runs drive workers purely through the environment: activate
    // any ASIP_FAULTS plan before the first connection arrives.
    crate::faults::init_from_env();
    let server = match EvalServer::bind(session, "127.0.0.1:0", ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("worker: bind: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // The coordinator blocks on this exact line; flush so it is
            // visible before the serve loop parks in accept().
            println!("LISTENING {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("worker: local_addr: {e}");
            std::process::exit(1);
        }
    }
    server.serve();
    std::process::exit(0);
}
