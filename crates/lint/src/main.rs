//! CLI for the snapshot ABI lock.
//!
//! ```text
//! powadapt-lint --abi-check          # verify crates/snap/ABI.lock
//! powadapt-lint --abi-update         # regenerate crates/snap/ABI.lock
//! ```
//!
//! Exit codes: 0 clean (or lock written), 1 ABI drift, 2 usage or I/O
//! error.

use std::process::ExitCode;

use powadapt_lint::{abi, compute_abi_lock, find_workspace_root};

fn usage() -> &'static str {
    "usage: powadapt-lint --abi-check | --abi-update\n\
     \n\
     --abi-check verifies crates/snap/ABI.lock against the enclosing\n\
     workspace's Snapshot structs and fails if the ABI changed without a\n\
     FORMAT_VERSION bump; --abi-update rewrites the lock.\n"
}

/// Runs `--abi-check` (`update == false`) or `--abi-update` and maps the
/// outcome to an exit code: 0 clean/updated, 1 ABI drift.
fn run(update: bool) -> Result<u8, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = find_workspace_root(&cwd)
        .ok_or_else(|| "no workspace Cargo.toml above the current directory".to_string())?;
    let current = compute_abi_lock(&root)?;
    let lock_path = root.join(abi::LOCK_PATH);
    if update {
        std::fs::write(&lock_path, &current).map_err(|e| e.to_string())?;
        eprintln!("powadapt-lint: wrote {}", abi::LOCK_PATH);
        return Ok(0);
    }
    let on_disk = std::fs::read_to_string(&lock_path).ok();
    match abi::check(&current, on_disk.as_deref()) {
        abi::AbiStatus::Clean => {
            eprintln!("powadapt-lint: snapshot ABI matches {}", abi::LOCK_PATH);
            Ok(0)
        }
        abi::AbiStatus::ChangedWithoutBump => {
            eprintln!(
                "powadapt-lint: snapshot ABI changed but FORMAT_VERSION did not.\n\
                 Readers of old snapshots would mis-decode the new layout.\n\
                 Bump FORMAT_VERSION in {} and run `powadapt-lint --abi-update`.",
                abi::VERSION_PATH
            );
            Ok(1)
        }
        abi::AbiStatus::Stale => {
            eprintln!(
                "powadapt-lint: {} is stale; run `powadapt-lint --abi-update` and commit it.",
                abi::LOCK_PATH
            );
            Ok(1)
        }
        abi::AbiStatus::Missing => {
            eprintln!(
                "powadapt-lint: {} missing or unreadable; run `powadapt-lint --abi-update`.",
                abi::LOCK_PATH
            );
            Ok(1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let update = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--abi-check"] => false,
        ["--abi-update"] => true,
        ["--help" | "-h"] => {
            eprint!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => {
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(update) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("powadapt-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
