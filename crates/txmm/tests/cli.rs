//! End-to-end tests of the `txmm` binary: one-shot `serve` and
//! `outcomes` print exactly the library's JSONL lines, and command-line
//! errors exit 1 with one `error:` line on stderr.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use txmm::litmus::parse_litmus;
use txmm::serve::{
    collect_litmus_files, jsonl_line, outcomes_jsonl_line, serve_source, ServedOutcomes,
    TestFailure,
};
use txmm::session::Session;

/// A fresh directory for one test.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("txmm-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A small corpus on disk: the first generated programs plus one source
/// that does not parse.
fn write_corpus(dir: &Path) -> Vec<PathBuf> {
    for (i, (name, src)) in txmm::corpus::generate(2).into_iter().take(8).enumerate() {
        std::fs::write(dir.join(format!("{i:02}-{name}.litmus")), src).expect("write");
    }
    std::fs::write(dir.join("99-broken.litmus"), "t (Marvel)\n").expect("write");
    collect_litmus_files(dir).expect("listing")
}

/// Run the binary, killing it if it outlives a generous deadline.
fn txmm(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_txmm"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn txmm");
    let deadline = Instant::now() + Duration::from_secs(120);
    while child.try_wait().expect("poll txmm").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("txmm {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

fn lines(bytes: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(bytes)
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn one_shot_output_matches_the_library() {
    let dir = temp_dir("corpus");
    let files = write_corpus(&dir);
    let dir_arg = dir.display().to_string();

    let mut session = Session::new();
    let want_check: Vec<String> = files
        .iter()
        .map(|f| {
            let src = std::fs::read_to_string(f).expect("read");
            jsonl_line(&serve_source(
                &mut session,
                &f.display().to_string(),
                &src,
                None,
            ))
        })
        .collect();
    let want_outcomes: Vec<String> = files
        .iter()
        .map(|f| {
            let file = f.display().to_string();
            let src = std::fs::read_to_string(f).expect("read");
            let served = match parse_litmus(&src) {
                Ok(t) => match session.outcomes(&file, &t, None) {
                    Ok(r) => ServedOutcomes::Report(r),
                    Err(error) => ServedOutcomes::Failure(TestFailure { file, error }),
                },
                Err(e) => ServedOutcomes::Failure(TestFailure {
                    file,
                    error: e.to_string(),
                }),
            };
            outcomes_jsonl_line(&served)
        })
        .collect();

    for (cmd, want) in [("serve", want_check), ("outcomes", want_outcomes)] {
        let out = txmm(&[cmd, &dir_arg]);
        assert_eq!(lines(&out.stdout), want, "txmm {cmd} stdout");
        // The broken file is a failure line, so the run fails.
        assert_eq!(out.status.code(), Some(1), "txmm {cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("1 tests failed to serve"), "{stderr}");
        assert!(!stderr.contains("error:"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_exit_1_with_one_error_line() {
    let dir = temp_dir("errors");
    let file = dir.join("00-sb.litmus");
    let (_, src) = txmm::corpus::generate(2).remove(0);
    std::fs::write(&file, src).expect("write");
    let file = file.display().to_string();
    let missing = dir.join("missing.litmus").display().to_string();

    for args in [
        vec!["serve", &file, "--model", "no-such-model"],
        vec!["outcomes", &file, "--model", "no-such-model"],
        vec!["serve", &file, "--cat", &missing],
        vec!["client", "127.0.0.1:1", "check", &missing],
        vec!["serve", "--listen", "127.0.0.1:0", "--shards", "x"],
        vec!["serve", "--listen", "127.0.0.1:0", "--max-conns", "x"],
        vec!["outcomes", &file, "--workers", "x"],
        vec!["outcomes", &file, "--max-candidates", "0"],
    ] {
        let out = txmm(&args);
        assert_eq!(out.status.code(), Some(1), "txmm {args:?}");
        let stderr = lines(&out.stderr);
        let errors: Vec<&String> = stderr.iter().filter(|l| l.contains("error:")).collect();
        assert_eq!(errors.len(), 1, "txmm {args:?}: {stderr:?}");
        assert!(
            errors[0].starts_with("error: "),
            "txmm {args:?}: {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "txmm {args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
