//! Black-box tests of the `mct` binary: exit codes and stderr on failure,
//! `--json` output, and the full serve → query → query loop over a real
//! socket with a cache hit on the second query.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

use mct_serve::json::Json;

fn mct() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mct"))
}

fn fig2_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/fig2.bench")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn no_arguments_fails_with_usage() {
    let output = mct().output().unwrap();
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("usage"));
}

#[test]
fn missing_netlist_path_fails_with_error_on_stderr() {
    let output = mct()
        .args(["analyze", "/no/such/dir/missing.bench"])
        .output()
        .unwrap();
    assert!(!output.status.success(), "missing file must exit non-zero");
    let err = stderr_of(&output);
    assert!(err.contains("error:"), "stderr was: {err}");
    assert!(err.contains("missing.bench"), "stderr was: {err}");
}

#[test]
fn malformed_bench_fails_with_error_on_stderr() {
    let path = std::env::temp_dir().join(format!("mct-cli-bad-{}.bench", std::process::id()));
    std::fs::write(&path, "INPUT(a)\nb = FROB(a)\n").unwrap();
    let output = mct().arg("analyze").arg(&path).output().unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!output.status.success(), "parse error must exit non-zero");
    assert!(stderr_of(&output).contains("error:"));
}

#[test]
fn unknown_command_and_flag_fail() {
    let output = mct().arg("frobnicate").output().unwrap();
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("unknown command"));

    let output = mct().args(["analyze", "--frobnicate"]).output().unwrap();
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("unknown flag"));
}

#[test]
fn query_against_no_server_fails_cleanly() {
    let output = mct()
        .args(["query", "--ping", "--connect", "127.0.0.1:1"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("error:"));
}

#[test]
fn analyze_json_emits_a_parsable_report() {
    let output = mct()
        .args(["analyze", "--fixed", "--json"])
        .arg(fig2_path())
        .output()
        .unwrap();
    assert!(output.status.success(), "stderr: {}", stderr_of(&output));
    let report = Json::parse(stdout_of(&output).trim()).expect("stdout is JSON");
    assert!(
        report
            .get("mct_upper_bound")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    assert_eq!(
        report
            .get("bound_exact")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(2)
    );
    assert_eq!(report.get("timed_out").and_then(Json::as_bool), Some(false));
}

/// A fuzz repro replays from the CLI: `mct analyze` reads its `# .delay`
/// and `# .init` annotations, so it reports the bound an in-process run
/// of the annotated circuit reports, not the mapped-model one.
#[test]
fn analyze_replays_an_annotated_fuzz_repro() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/bpgrid.bench");
    let text = std::fs::read_to_string(&path).unwrap();
    let circuit = mct_fuzz::parse_timed_bench(&text).unwrap();
    let expected = mct_core::MctAnalyzer::new(&circuit)
        .unwrap()
        .run(&mct_core::MctOptions::paper())
        .unwrap()
        .bound_exact;

    let output = mct()
        .args(["analyze", "--json"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(output.status.success(), "stderr: {}", stderr_of(&output));
    let report = Json::parse(stdout_of(&output).trim()).expect("stdout is JSON");
    let bound: Vec<i64> = report
        .get("bound_exact")
        .and_then(Json::as_arr)
        .expect("bound_exact")
        .iter()
        .map(|v| v.as_i64().expect("integer"))
        .collect();
    assert_eq!(bound, [expected.num(), expected.den()]);
}

/// Kills the serve child if a test assertion unwinds first.
struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_then_query_twice_hits_the_cache_and_shuts_down() {
    let mut child = mct()
        .args(["serve", "--listen", "127.0.0.1:0", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mct serve");
    let stdout = child.stdout.take().expect("serve stdout");
    let mut guard = ServeGuard(child);

    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read serve banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_owned();

    let query = |extra: &[&str]| {
        let mut cmd = mct();
        cmd.args(["query", "--connect", &addr, "--fixed", "--json"]);
        cmd.args(extra);
        cmd.arg(fig2_path());
        let output = cmd.output().unwrap();
        assert!(output.status.success(), "stderr: {}", stderr_of(&output));
        Json::parse(stdout_of(&output).trim()).expect("query output is JSON")
    };

    let first = query(&[]);
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    let second = query(&[]);
    assert_eq!(
        second.get("cache").and_then(Json::as_str),
        Some("hit"),
        "second identical query must be served from the cache"
    );
    assert_eq!(
        first.get("report").unwrap().to_compact(),
        second.get("report").unwrap().to_compact(),
        "cached report must be byte-identical to the cold one"
    );

    let shutdown = mct()
        .args(["query", "--shutdown", "--connect", &addr])
        .output()
        .unwrap();
    assert!(
        shutdown.status.success(),
        "stderr: {}",
        stderr_of(&shutdown)
    );
    let status = guard.0.wait().expect("wait for serve to exit");
    assert!(status.success(), "serve must exit cleanly after shutdown");
}

/// Every sink of the kernel counters reports exactly the declared list,
/// under the declared names: `analyze --json`, the daemon's `stats.kernel`
/// aggregate, and its per-analysis `type=kernel` log line.
#[test]
fn kernel_counters_reach_every_sink_under_their_declared_names() {
    let declared: Vec<String> = mct_core::BddStats::COUNTERS
        .iter()
        .map(|c| c.name.to_owned())
        .collect();
    let keys = |obj: &Json| -> Vec<String> {
        obj.as_obj()
            .expect("kernel object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };

    let output = mct()
        .args(["analyze", "--json"])
        .arg(fig2_path())
        .output()
        .unwrap();
    assert!(output.status.success(), "stderr: {}", stderr_of(&output));
    let report = Json::parse(stdout_of(&output).trim()).unwrap();
    assert_eq!(
        keys(report.get("kernel").unwrap()),
        declared,
        "analyze --json"
    );

    let mut child = mct()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mct serve");
    let stdout = child.stdout.take().expect("serve stdout");
    let stderr = child.stderr.take().expect("serve stderr");
    let mut guard = ServeGuard(child);
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap()
        .to_owned();
    let run = |args: &[&str]| {
        let output = mct()
            .args(args)
            .args(["--connect", &addr])
            .output()
            .unwrap();
        assert!(output.status.success(), "stderr: {}", stderr_of(&output));
        output
    };
    run(&["query", fig2_path().to_str().unwrap()]);
    let stats = Json::parse(stdout_of(&run(&["query", "--stats"])).trim()).unwrap();
    assert_eq!(keys(stats.get("kernel").unwrap()), declared, "stats.kernel");
    run(&["query", "--shutdown"]);
    assert!(guard.0.wait().unwrap().success());

    let log = BufReader::new(stderr)
        .lines()
        .map(Result::unwrap)
        .find(|l| l.contains("type=kernel"))
        .expect("a kernel log line");
    let logged: Vec<String> = log
        .split_whitespace()
        .filter_map(|f| f.split_once('='))
        .map(|(k, _)| k.to_owned())
        .filter(|k| !["peer", "type", "circuit"].contains(&k.as_str()))
        .collect();
    assert_eq!(logged, declared, "log line: {log}");
}
