//! `skalla-cli` refuses a flag that no command reads, naming it, rather
//! than running another query than the one asked for.

use std::process::Command;

#[test]
fn an_unknown_flag_is_refused_by_name() {
    let cli = env!("CARGO_BIN_EXE_skalla-cli");
    for (args, flag) in [
        (&["explain", "--rows", "100", "--chunk", "4", "-q", "x"][..], "\"--chunk\""),
        (&["run", "--cache-byte", "0"], "\"--cache-byte\""),
    ] {
        let out = Command::new(cli).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} ran");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{args:?}: {stderr}");
    }
    // A value that looks like a flag is the value, and a known switch is
    // no error: the query text is read, then refused as a query.
    let out = Command::new(cli).args(["explain", "--rows", "100", "--no-cache", "-q", "-x"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success() && !stderr.contains("unknown flag"), "{stderr}");
}
