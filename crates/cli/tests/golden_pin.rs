//! Pins the refactored CLI to pre-refactor golden artifacts.
//!
//! `tests/golden/` (repo root) holds a report and journal produced by
//! the binary *before* run orchestration moved into the runtime crate,
//! and a sim-backend report and journal produced before the simulator's
//! walk was rewritten. The same invocations must still produce
//! byte-identical reports, and journals identical up to the only two
//! non-deterministic byte ranges: `wall_ms` timing fields and the
//! manifest's `git` stamp.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_spotlight-cli");

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Zeroes the journal's non-deterministic bytes: every `"wall_ms":<n>`
/// becomes `"wall_ms":0`, and the manifest's `"git":"<stamp>"` becomes
/// `"git":""`.
fn normalize(journal: &str) -> String {
    let mut out = String::with_capacity(journal.len());
    let mut rest = journal;
    while let Some(pos) = rest.find("\"wall_ms\":") {
        let (head, tail) = rest.split_at(pos + "\"wall_ms\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);

    let mut scrubbed = String::with_capacity(out.len());
    let mut rest = out.as_str();
    while let Some(pos) = rest.find("\"git\":\"") {
        let (head, tail) = rest.split_at(pos + "\"git\":\"".len());
        scrubbed.push_str(head);
        let end = tail.find('"').expect("git value is a terminated string");
        rest = &tail[end..];
    }
    scrubbed.push_str(rest);
    scrubbed
}

/// Runs `spotlight-cli codesign <args> --out .. --journal ..` and checks
/// the report byte for byte, and the journal up to [`normalize`],
/// against `tests/golden/<report>` and `tests/golden/<journal>`.
fn assert_codesign_matches_golden(args: &[&str], report: &str, journal: &str) {
    let dir =
        std::env::temp_dir().join(format!("spotlight-golden-{}-{report}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp workdir creates");
    let report_path = dir.join(report);
    let journal_path = dir.join(journal);

    let status = Command::new(BIN)
        .arg("codesign")
        .args(args)
        .args(["--out", report_path.to_str().unwrap()])
        .args(["--journal", journal_path.to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success());

    let golden_report =
        std::fs::read_to_string(golden_dir().join(report)).expect("golden report exists");
    let got_report = std::fs::read_to_string(&report_path).expect("report written");
    assert_eq!(
        got_report, golden_report,
        "final report must be byte-identical to the golden {report}"
    );

    let golden_journal =
        std::fs::read_to_string(golden_dir().join(journal)).expect("golden journal exists");
    let got_journal = std::fs::read_to_string(&journal_path).expect("journal written");
    assert_eq!(
        normalize(&got_journal),
        normalize(&golden_journal),
        "journal must match the golden {journal} up to wall_ms and the git stamp"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refactored_cli_reproduces_the_pre_refactor_golden_run() {
    assert_codesign_matches_golden(
        &[
            "--model",
            "transformer",
            "--hw",
            "4",
            "--sw",
            "6",
            "--seed",
            "3",
        ],
        "report.txt",
        "run.jsonl",
    );
}

/// The sim backend's report: `tests/golden/sim_report.txt` and
/// `sim_run.jsonl` were produced by the binary before the simulator's
/// loop-nest walk was rewritten to step carry by carry.
#[test]
fn sim_backend_reproduces_its_golden_run() {
    assert_codesign_matches_golden(
        &[
            "--model",
            "mnasnet",
            "--backend",
            "sim",
            "--hw",
            "3",
            "--sw",
            "6",
            "--seed",
            "5",
        ],
        "sim_report.txt",
        "sim_run.jsonl",
    );
    let golden = std::fs::read_to_string(golden_dir().join("sim_report.txt"))
        .expect("golden sim report exists");
    assert!(golden.contains("21905625723049.51"), "pinned best cost");
}

#[test]
fn golden_report_still_contains_the_pinned_result() {
    // Belt and braces: the golden file itself must carry the expected
    // search result, so a regeneration that changed the outcome (rather
    // than the formatting) cannot slip through unnoticed.
    let golden =
        std::fs::read_to_string(golden_dir().join("report.txt")).expect("golden report exists");
    assert!(golden.contains("597544319801551.1"), "pinned best cost");
    assert!(golden.contains("179PE (179x1) simd12 RF176KiB L2104KiB BW119"));
    assert!(
        !golden.contains("hit rate"),
        "report must exclude cache stats"
    );
    assert!(
        !golden.contains("phase "),
        "report must exclude wall timers"
    );
}
