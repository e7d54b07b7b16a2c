//! The `dox-lint` command-line driver.
//!
//! ```text
//! dox-lint --workspace [--format text|json] [--config lint.toml]
//!          [--root DIR] [--no-baseline] [--list-rules]
//! ```
//!
//! Exit codes: `0` clean, `1` findings or baseline problems, `2` usage,
//! configuration or I/O errors.

use dox_lint::config::Config;
use dox_lint::{diag, run_workspace, walker};
use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "\
dox-lint: project-specific static analysis (see DESIGN.md §Static analysis)

USAGE:
    dox-lint [--workspace] [OPTIONS]

OPTIONS:
    --workspace        Lint every non-vendor .rs file in the workspace (default)
    --root <DIR>       Workspace root (default: walk up from the current directory)
    --config <FILE>    Configuration/baseline file (default: <root>/lint.toml)
    --format <FMT>     Output format: text (default) or json
    --no-baseline      Ignore lint.toml's baseline (report everything)
    --list-rules       Print the rule names and exit
    -h, --help         This message

RULES:
    panic-hygiene     no unwrap/expect/panic!/unreachable!/todo! in dox-* library code
    pii-taint         dataflow: PII source fields must not reach log/wire sinks
                      unredacted (redact() is the only sanitizer)
    determinism       no wall-clock/entropy calls in library code outside crates/obs
    determinism-flow  dataflow: HashMap/HashSet-iteration values must not reach
                      serialization unsorted
    lock-order        dataflow: no lock-acquisition-order cycles; no guard held
                      across blocking I/O or a Condvar wait; no re-locking a mutex
                      whose named guard is live; no fresh guard bound to _
    unsafe-audit      no `unsafe` outside vendor/; crate roots carry forbid(unsafe_code)

Suppress a single line with `// dox-lint:allow(rule) <reason>`; grandfather
pockets of findings in lint.toml under [baseline] as \"<file>: <rule>: <count>\".
`--format json` emits {files_checked, findings, baselined, baseline_errors}.";

struct Args {
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    json: bool,
    no_baseline: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        config: None,
        json: false,
        no_baseline: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a file")?));
            }
            "--format" => match it.next().as_deref() {
                Some("text") => args.json = false,
                Some("json") => args.json = true,
                other => return Err(format!("unknown format {other:?} (text|json)")),
            },
            "--no-baseline" => args.no_baseline = true,
            "--list-rules" => args.list_rules = true,
            "-h" | "--help" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for rule in dox_lint::rules::RULE_NAMES {
            println!("{rule}");
        }
        return ExitCode::SUCCESS;
    }

    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match walker::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let config_path = args.config.unwrap_or_else(|| root.join("lint.toml"));
    let mut config = match std::fs::read_to_string(&config_path) {
        Ok(text) => match Config::parse(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {}: {e}", config_path.display());
                return ExitCode::from(2);
            }
        },
        // A missing lint.toml means strict defaults and an empty baseline.
        Err(_) => Config::default(),
    };
    if args.no_baseline {
        config.baseline.clear();
    }

    let report = match run_workspace(&root, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if args.json {
        println!("{}", diag::report_to_json(&report));
    } else {
        for d in &report.findings {
            println!("{d}");
        }
        for e in &report.baseline_errors {
            println!("lint.toml: {e}");
        }
        eprintln!(
            "dox-lint: {} file(s) checked, {} finding(s), {} baselined, {} baseline error(s)",
            report.files_checked,
            report.findings.len(),
            report.baselined.len(),
            report.baseline_errors.len()
        );
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
