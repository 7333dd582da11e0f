//! The usage text an unknown flag prints: exit code 2, and the option
//! list indented so each wrapped description reads as part of its option.

use std::process::Command;

#[test]
fn unknown_flag_prints_indented_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_pwrel-audit"))
        .arg("--bogus")
        .output()
        .expect("run pwrel-audit");
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stderr).expect("utf-8 usage text");
    let options: Vec<&str> = text
        .lines()
        .skip_while(|l| *l != "options:")
        .skip(1)
        .collect();
    let flags = [
        "--root",
        "--json",
        "--stale",
        "--update-allowlist",
        "--verbose",
    ];
    for flag in flags {
        assert!(
            options.iter().any(|l| l.starts_with(&format!("  {flag} "))),
            "{flag} is not an indented option line:\n{text}"
        );
    }
    // The wrapped half of `--stale`'s description lines up under its
    // description column, not with the option names.
    let stale = options
        .iter()
        .position(|l| l.trim_start().starts_with("--stale"))
        .expect("--stale line");
    let wrapped = options[stale + 1];
    let column = options[stale].find("check").expect("--stale description");
    assert_eq!(
        wrapped.len() - wrapped.trim_start().len(),
        column,
        "wrapped line {wrapped:?} is not aligned:\n{text}"
    );
    assert_eq!(options.len(), flags.len() + 1, "{text}");
}
