//! `dox-serve` — the continuous-ingest service daemon.
//!
//! ```text
//! cargo run -p dox-serve --release -- [OPTIONS]
//!
//! OPTIONS:
//!   --addr <host:port>    bind address (default 127.0.0.1:9321; port 0
//!                         picks an ephemeral port, printed on startup)
//!   --http-workers <n>    connection worker threads (default 8)
//!   --max-body <bytes>    request body limit (default 4 MiB)
//!   --max-backlog <n>     connections allowed to wait for a worker;
//!                         overflow is shed with 503 (default 1024)
//!   --deadline-ms <ms>    per-request wall-clock budget (default 30000)
//!   --checkpoint-dir <d>  SIGTERM drain commits every tenant into the
//!                         segment store at <d>/store
//!   --resume              restore every tenant checkpoint from
//!                         --checkpoint-dir before serving
//!   --quiet               suppress startup/drain notices on stderr
//! ```
//!
//! The daemon hosts resident engine sessions (one per tenant) behind
//! the `/v1` API — see the `dox_serve::api` module docs for the route
//! table. On SIGTERM (or SIGINT) it stops accepting mutations,
//! quiesces every tenant through the engine's checkpoint protocol,
//! commits all of their checkpoints into the segment store at
//! `<dir>/store` in one manifest swap, and exits 0; a follow-up
//! `--resume` start restores every tenant byte-identically.

use dox_obs::http::{HttpServer, ServerConfig};
use dox_serve::ServeState;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// POSIX signal numbers (stable on every platform this builds for).
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Set from the signal handler; the main loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: flip the flag, nothing else.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" {
    // libc's signal(2). The daemon needs exactly one hook — "a SIGTERM
    // was delivered" — so the portable two-argument form is enough and
    // avoids depending on a libc crate the workspace doesn't vendor.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn install_signal_handlers() {
    // SAFETY: `on_signal` only stores to an atomic, which is
    // async-signal-safe; the handler pointer outlives the process.
    // dox-lint:allow(unsafe-audit) signal(2) registration; the handler only flips an atomic flag
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

struct Args {
    addr: String,
    http_workers: usize,
    max_body: usize,
    max_backlog: usize,
    deadline: Duration,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    quiet: bool,
}

const HELP: &str = "dox-serve — continuous-ingest service daemon
  --addr <host:port>    bind address (default 127.0.0.1:9321)
  --http-workers <n>    connection worker threads (default 8)
  --max-body <bytes>    request body limit (default 4 MiB)
  --max-backlog <n>     waiting-connection bound; overflow sheds 503 (default 1024)
  --deadline-ms <ms>    per-request wall-clock budget (default 30000)
  --checkpoint-dir <d>  SIGTERM drain commits every tenant into <d>/store
  --resume              restore tenants from --checkpoint-dir first
  --quiet               no startup/drain notices";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:9321".to_string(),
        http_workers: 8,
        max_body: dox_obs::http::DEFAULT_MAX_BODY,
        max_backlog: dox_obs::http::DEFAULT_MAX_BACKLOG,
        deadline: dox_obs::http::DEFAULT_REQUEST_DEADLINE,
        checkpoint_dir: None,
        resume: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => args.addr = it.next().ok_or("--addr needs a value")?,
            "--http-workers" => {
                let v = it.next().ok_or("--http-workers needs a value")?;
                args.http_workers = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or(format!("bad worker count {v:?}"))?;
            }
            "--max-body" => {
                let v = it.next().ok_or("--max-body needs a value")?;
                args.max_body = v.parse().map_err(|_| format!("bad body limit {v:?}"))?;
            }
            "--max-backlog" => {
                let v = it.next().ok_or("--max-backlog needs a value")?;
                args.max_backlog = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or(format!("bad backlog bound {v:?}"))?;
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a value")?;
                args.deadline = v
                    .parse::<u64>()
                    .ok()
                    .filter(|ms| *ms > 0)
                    .map(Duration::from_millis)
                    .ok_or(format!("bad deadline {v:?}"))?;
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir =
                    Some(it.next().ok_or("--checkpoint-dir needs a path")?.into());
            }
            "--resume" => args.resume = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                eprintln!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.resume && args.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    let registry = dox_obs::global().clone();
    registry.events().set_echo(!args.quiet);
    let state = Arc::new(ServeState::new(registry));
    let tracer = dox_obs::Tracer::disabled();

    if args.resume {
        if let Some(dir) = &args.checkpoint_dir {
            match state.restore_checkpoints(dir) {
                Ok(restored) => {
                    if !args.quiet {
                        eprintln!(
                            "dox-serve: restored {} tenant(s): {}",
                            restored.len(),
                            restored.join(", ")
                        );
                    }
                }
                Err(e) => {
                    eprintln!("error: resume failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    install_signal_handlers();

    let router = dox_serve::router(Arc::clone(&state), &tracer);
    let config = ServerConfig {
        workers: args.http_workers,
        max_body: args.max_body,
        max_backlog: args.max_backlog,
        request_deadline: args.deadline,
        // The http.* shed/backlog/deadline instruments land in the same
        // registry /metrics serves.
        registry: state.registry().clone(),
        ..ServerConfig::default()
    };
    let server = match HttpServer::start_with(&args.addr, router, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        eprintln!("dox-serve: listening on http://{}/v1", server.local_addr());
    }

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }

    // Drain: refuse new mutations, quiesce and checkpoint every tenant,
    // then stop the server and exit cleanly.
    state.begin_drain();
    if let Some(dir) = &args.checkpoint_dir {
        match state.drain_checkpoints(dir) {
            Ok(written) => {
                if !args.quiet {
                    eprintln!(
                        "dox-serve: drained {} tenant checkpoint(s) into {}",
                        written.len(),
                        dir.display()
                    );
                }
            }
            Err(e) => {
                eprintln!("error: drain failed: {e}");
                server.stop();
                return ExitCode::FAILURE;
            }
        }
    } else if !args.quiet {
        eprintln!("dox-serve: shutting down (no --checkpoint-dir, tenants not persisted)");
    }
    server.stop();
    ExitCode::SUCCESS
}
