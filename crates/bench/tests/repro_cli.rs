//! Command-line behaviour of the `repro` binary.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn csv_dir_that_cannot_be_created_exits_nonzero() {
    let file = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    let csv = file.join("csv");
    let out = repro(&["--scale", "quick", "--csv", csv.to_str().unwrap(), "table5"]);
    std::fs::remove_file(&file).unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(csv.to_str().unwrap()), "{stderr}");
    assert!(!csv.exists());
}

#[test]
fn unknown_scale_is_a_usage_error() {
    let out = repro(&["--scale", "huge", "table5"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scale 'huge'"));
}
