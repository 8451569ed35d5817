//! Records the compiler version for the machine fingerprint, so a result
//! line names the toolchain that built it without the benchmark spawning
//! `rustc` at run time.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=ASCDG_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
