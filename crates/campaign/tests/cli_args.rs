//! Flag validation of the `deterrent-campaign` binary: a rareness
//! threshold outside (0, 0.5] is a flag error (exit 2) caught before any
//! cell runs, so no report header reaches stdout.

use std::process::Command;

fn run_with_thetas(thetas: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_deterrent-campaign"))
        .args([
            "--netlists",
            "c2670",
            "--scale",
            "40",
            "--thetas",
            thetas,
            "--seeds",
            "1",
            "--episodes",
            "2",
            "--quiet",
        ])
        .output()
        .expect("the deterrent-campaign binary starts")
}

#[test]
fn out_of_range_thetas_are_rejected_at_parse_time() {
    for thetas in ["nan", "0.7", "nan,0.7", "0.2,0", "-0.1", "inf"] {
        let out = run_with_thetas(thetas);
        assert_eq!(out.status.code(), Some(2), "--thetas {thetas}");
        assert!(
            out.stdout.is_empty(),
            "--thetas {thetas} printed a report: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bad --thetas"),
            "--thetas {thetas}: {stderr}"
        );
    }
}
