//! End-to-end tests of the `wlq` command-line binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn wlq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wlq"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("wlq-cli-test-{}-{name}", std::process::id()));
    path
}

#[test]
fn help_lists_all_commands() {
    let out = wlq(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "simulate", "stats", "validate", "query", "explain", "mine", "check", "conform", "convert",
        "dot",
    ] {
        assert!(text.contains(cmd), "help is missing {cmd}");
    }
}

#[test]
fn example_prints_figure3() {
    let out = wlq(&["example"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("4 | 1 | 3 | CheckIn"));
    assert_eq!(text.lines().count(), 21); // header + 20 records
}

#[test]
fn unknown_command_fails_with_message() {
    let out = wlq(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn simulate_stats_query_round_trip() {
    let path = temp_path("clinic.csv");
    let path_str = path.to_str().unwrap();

    let out = wlq(&["simulate", "clinic", "25", "7", path_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("25 instances"));

    let out = wlq(&["stats", path_str]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("instances: 25"));

    let out = wlq(&["validate", path_str]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("valid log"));

    let out = wlq(&["query", path_str, "GetRefer ~> CheckIn", "--count"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).trim(), "25");

    let out = wlq(&["query", path_str, "GetRefer ~> CheckIn", "--exists"]);
    assert_eq!(stdout(&out).trim(), "true");

    let out = wlq(&["query", path_str, "CompleteRefer -> GetRefer", "--exists"]);
    assert_eq!(stdout(&out).trim(), "false");

    std::fs::remove_file(&path).ok();
}

#[test]
fn query_flags_and_modes() {
    let path = temp_path("loan.bin");
    let path_str = path.to_str().unwrap();
    let out = wlq(&["simulate", "loan", "10", "3", path_str]);
    assert!(out.status.success(), "{}", stderr(&out));

    // All strategy/thread combinations agree on the count.
    let baseline = stdout(&wlq(&[
        "query",
        path_str,
        "Submit -> CheckCredit",
        "--count",
    ]));
    for flags in [
        vec!["--count", "--naive"],
        vec!["--count", "--threads", "3"],
    ] {
        let mut args = vec!["query", path_str, "Submit -> CheckCredit"];
        args.extend(flags);
        let out = wlq(&args);
        assert!(out.status.success());
        assert_eq!(stdout(&out), baseline);
    }
    // The planner is the only optimizer; there is nothing to switch off.
    let out = wlq(&[
        "query",
        path_str,
        "Submit -> CheckCredit",
        "--count",
        "--no-optimize",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"), "{}", stderr(&out));

    let out = wlq(&["query", path_str, "Submit", "--by-instance"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).lines().count(), 10);

    let out = wlq(&["query", path_str, "Submit ->", "--count"]);
    assert!(!out.status.success());
    // Parse errors point a caret at the offending position.
    assert!(stderr(&out).contains("Submit ->"), "{}", stderr(&out));
    assert!(stderr(&out).contains('^'), "{}", stderr(&out));

    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_and_mine_render_reports() {
    let path = temp_path("order.txt");
    let path_str = path.to_str().unwrap();
    assert!(wlq(&["simulate", "order", "12", "9", path_str])
        .status
        .success());

    // explain prints the planner's plan without running the query.
    let out = wlq(&["explain", path_str, "PlaceOrder -> (Ship & CollectPayment)"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let planned = stdout(&out);
    assert!(planned.contains("chosen:"), "{planned}");
    assert!(planned.contains("scan PlaceOrder"), "{planned}");
    assert!(!planned.contains("total"), "{planned}");

    let out = wlq(&["explain", path_str, "PlaceOrder", "--plan"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"));

    let out = wlq(&["explain", path_str, "PlaceOrder", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag"));

    let out = wlq(&["mine", path_str, "12"]);
    assert!(out.status.success());
    let text = stdout(&out);
    // Every instance places then closes an order.
    assert!(text.contains("PlaceOrder"), "{text}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn conform_detects_conforming_and_violating_logs() {
    let path = temp_path("conform.csv");
    let path_str = path.to_str().unwrap();
    assert!(wlq(&["simulate", "order", "6", "2", path_str])
        .status
        .success());

    let out = wlq(&["conform", "order", path_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("log conforms"));

    // The clinic model does not accept order-fulfillment traces.
    let out = wlq(&["conform", "clinic", path_str]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("violate"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn convert_round_trips_across_formats() {
    let text_path = temp_path("conv.txt");
    let csv_path = temp_path("conv.csv");
    let bin_path = temp_path("conv.bin");
    let xes_path = temp_path("conv.xes");
    let (t, c, b, x) = (
        text_path.to_str().unwrap(),
        csv_path.to_str().unwrap(),
        bin_path.to_str().unwrap(),
        xes_path.to_str().unwrap(),
    );
    assert!(wlq(&["simulate", "clinic", "8", "4", t]).status.success());
    assert!(wlq(&["convert", t, c]).status.success());
    assert!(wlq(&["convert", c, b]).status.success());
    assert!(wlq(&["convert", b, x]).status.success());

    // Round-tripped stats agree across all four formats.
    let s1 = stdout(&wlq(&["stats", t]));
    let s3 = stdout(&wlq(&["stats", b]));
    let s4 = stdout(&wlq(&["stats", x]));
    assert_eq!(s1, s3);
    assert_eq!(s1, s4);
    assert!(std::fs::read_to_string(&xes_path)
        .unwrap()
        .contains("<trace>"));

    for path in [text_path, csv_path, bin_path, xes_path] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn dot_outputs_graphviz() {
    let out = wlq(&["dot", "loan"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("digraph"));
    assert!(text.contains("ManualReview"));

    let out = wlq(&["dot", "nope"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown scenario"));
}

#[test]
fn audit_runs_builtin_and_custom_rule_files() {
    let log_path = temp_path("audit.csv");
    let rules_path = temp_path("audit.rules");
    let (l, r) = (log_path.to_str().unwrap(), rules_path.to_str().unwrap());
    assert!(wlq(&["simulate", "clinic", "60", "11", l]).status.success());

    // Built-in battery.
    let out = wlq(&["audit", l]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("update-before-reimburse"));
    assert!(text.contains("flagged instances:"));

    // Custom rules file.
    std::fs::write(
        &rules_path,
        "visits := SeeDoctor # any visit\nupdated-twice := UpdateRefer -> UpdateRefer\n",
    )
    .unwrap();
    let out = wlq(&["audit", l, r]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("visits"));

    // Broken rules file is rejected with a line number.
    std::fs::write(&rules_path, "oops\n").unwrap();
    let out = wlq(&["audit", l, r]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("line 1"));

    std::fs::remove_file(&log_path).ok();
    std::fs::remove_file(&rules_path).ok();
}

#[test]
fn exit_codes_distinguish_usage_io_and_malformed_logs() {
    // 2 — usage errors: unknown command, unknown scenario, missing args.
    assert_eq!(wlq(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(wlq(&["dot", "nope"]).status.code(), Some(2));
    assert_eq!(wlq(&["query"]).status.code(), Some(2));

    // 4 — file I/O: a path that does not exist.
    let out = wlq(&["stats", "/no/such/dir/wlq-missing.txt"]);
    assert_eq!(out.status.code(), Some(4));
    assert!(stderr(&out).contains("cannot read"));

    // 4 — file I/O: non-UTF-8 bytes where a text format is expected.
    let bad = temp_path("not-utf8.txt");
    std::fs::write(&bad, [0xFFu8, 0xFE, 0x00, 0x9F]).unwrap();
    let out = wlq(&["stats", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    std::fs::remove_file(&bad).ok();

    // 5 — malformed log: an empty file has no records (Definition 2).
    let empty = temp_path("empty.txt");
    std::fs::write(&empty, "").unwrap();
    let out = wlq(&["validate", empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(5), "{}", stderr(&out));
    assert!(stderr(&out).contains("at least one record"));
    std::fs::remove_file(&empty).ok();

    // 5 — malformed log: garbage content names the line.
    let garbage = temp_path("garbage.txt");
    std::fs::write(&garbage, "this is not a log\n").unwrap();
    let out = wlq(&["stats", garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(5));
    assert!(stderr(&out).contains("line 1"), "{}", stderr(&out));
    std::fs::remove_file(&garbage).ok();
}

#[test]
fn exit_codes_distinguish_pattern_rule_and_domain_failures() {
    let path = temp_path("codes.csv");
    let p = path.to_str().unwrap();
    assert!(wlq(&["simulate", "clinic", "5", "1", p]).status.success());

    // 3 — pattern parse failure.
    let out = wlq(&["query", p, "GetRefer ~>", "--count"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));

    // 3 — rules-file parse failure.
    let rules = temp_path("codes.rules");
    std::fs::write(&rules, "not a rule\n").unwrap();
    let out = wlq(&["audit", p, rules.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    std::fs::remove_file(&rules).ok();

    // 1 — domain failure: the log violates the checked model.
    let out = wlq(&["conform", "order", p]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("violate"));

    // 0 — and the same log conforms to its own model.
    assert_eq!(wlq(&["conform", "clinic", p]).status.code(), Some(0));

    std::fs::remove_file(&path).ok();
}

#[test]
fn count_overflow_is_an_engine_error_not_a_wrapped_number() {
    // One instance: START, then 100 000 records of `t`.
    let path = temp_path("overflow.log");
    let mut text = String::from("lsn | wid | is-lsn | t | in | out\n1 | 1 | 1 | START | - | -\n");
    for lsn in 2..=100_001 {
        text.push_str(&format!("{lsn} | 1 | {lsn} | t | - | -\n"));
    }
    std::fs::write(&path, text).unwrap();
    let p = path.to_str().unwrap();

    // C(100000, 3) fits and is exact.
    let out = wlq(&["query", p, "t -> t -> t", "--count"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "166661666700000");

    // C(100000, 5) ≈ 8.3·10²² does not fit: exit 6, engine error.
    let out = wlq(&["query", p, "t -> t -> t -> t -> t", "--count"]);
    assert_eq!(out.status.code(), Some(6), "{}", stderr(&out));
    assert!(stderr(&out).contains("does not fit"), "{}", stderr(&out));

    std::fs::remove_file(&path).ok();
}

#[test]
fn check_reports_lints_with_carets_and_exit_codes() {
    // A clean pattern exits 0 and reports zero findings.
    let out = wlq(&["check", "SeeDoctor -> PayTreatment"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("0 error(s), 0 warning(s), 0 hint(s)"));

    // An unsatisfiable pattern exits 1 with a span-anchored error.
    let out = wlq(&["check", "CheckIn -> START"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("error[WLQ001]"), "{text}");
    assert!(text.contains("CheckIn -> START"), "{text}");
    assert!(text.contains("^^^^^"), "{text}");
    assert!(text.contains("pattern is unsatisfiable"), "{text}");

    // Warnings pass by default but fail under --deny-warnings.
    let out = wlq(&["check", "A | A"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("warning[WLQ102]"));
    let out = wlq(&["check", "A | A", "--deny-warnings"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));

    // Hints never fail, even under --deny-warnings.
    let out = wlq(&["check", "A & A", "--deny-warnings"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("hint[WLQ103]"));

    // A parse error exits 3 with a caret.
    let out = wlq(&["check", "A -> "]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains('^'), "{}", stderr(&out));

    // Unknown flags are usage errors.
    assert_eq!(wlq(&["check", "A", "--bogus"]).status.code(), Some(2));
    assert_eq!(wlq(&["check"]).status.code(), Some(2));
}

#[test]
fn check_with_log_and_json_output() {
    let path = temp_path("check.csv");
    let p = path.to_str().unwrap();
    assert!(wlq(&["simulate", "clinic", "10", "5", p]).status.success());

    // Log-aware lint: an activity the log never records.
    let out = wlq(&["check", "NoSuchStep ~> SeeDoctor", "--log", p]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("warning[WLQ101]"), "{}", stdout(&out));

    // JSON output is a single line with the stable envelope.
    let out = wlq(&[
        "check",
        "NoSuchStep ~> SeeDoctor",
        "--log",
        p,
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let json = stdout(&out);
    assert_eq!(json.trim().lines().count(), 1);
    assert!(json.starts_with("{\"version\":1,"), "{json}");
    assert!(json.contains("\"code\":\"WLQ101\""), "{json}");
    assert!(json.contains("\"unsatisfiable\":false"), "{json}");

    // A tiny cost budget triggers WLQ105 with a rewrite suggestion.
    let out = wlq(&[
        "check",
        "SeeDoctor -> PayTreatment",
        "--log",
        p,
        "--cost-budget",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("warning[WLQ105]"), "{}", stdout(&out));

    std::fs::remove_file(&path).ok();
}

#[test]
fn timeline_and_spans_commands() {
    let path = temp_path("timeline.csv");
    let p = path.to_str().unwrap();
    assert!(wlq(&["simulate", "clinic", "30", "6", p]).status.success());

    let out = wlq(&["timeline", p, "UpdateRefer -> GetReimburse", "50"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("up to lsn"));
    assert!(text.lines().count() >= 3);

    // Default step (a tenth of the log) also works.
    let out = wlq(&["timeline", p, "SeeDoctor"]);
    assert!(out.status.success());

    let out = wlq(&["spans", p, "GetRefer -> GetReimburse"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("span min"));

    let out = wlq(&["spans", p, "NoSuchActivity"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).trim(), "no incidents");

    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_analyze_prints_per_node_actuals() {
    let path = temp_path("analyze.csv");
    let p = path.to_str().unwrap();
    assert!(wlq(&["simulate", "clinic", "15", "4", p]).status.success());

    // Positional form.
    let out = wlq(&["explain", p, "UpdateRefer -> GetReimburse", "--analyze"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for needle in [
        "query    :",
        "strategy : planned",
        "q-err  node",
        "scan UpdateRefer",
        "scan GetReimburse",
        "workers:",
        "total    :",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in {text}");
    }

    // Flag form (`--analyze <pattern> --log <file>`), parallel, with a
    // trace written next to the table.
    let trace_path = temp_path("analyze.jsonl");
    let t = trace_path.to_str().unwrap();
    let out = wlq(&[
        "explain",
        "--analyze",
        "GetRefer ~> CheckIn",
        "--log",
        p,
        "--threads",
        "2",
        "--trace-out",
        t,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("wrote trace"));

    // The written trace passes trace-check.
    let out = wlq(&["trace-check", t]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("valid trace: version 1"));

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn explain_flag_conflicts_are_usage_errors() {
    let path = temp_path("analyze-err.csv");
    let p = path.to_str().unwrap();
    assert!(wlq(&["simulate", "clinic", "5", "1", p]).status.success());

    let out = wlq(&["explain", p, "SeeDoctor", "--plan", "--analyze"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag \"--plan\""));

    let out = wlq(&["explain", p, "SeeDoctor", "--trace-out", "/tmp/x.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--trace-out requires --analyze"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn query_profile_answers_then_profiles() {
    let path = temp_path("profile.csv");
    let p = path.to_str().unwrap();
    assert!(wlq(&["simulate", "clinic", "20", "9", p]).status.success());

    // The mode answer must match the unprofiled run exactly, whether
    // the counting DP answers it or the executor does.
    for pattern in ["GetRefer ~> CheckIn", "GetRefer[balance > 0] ~> CheckIn"] {
        let plain = wlq(&["query", p, pattern, "--count"]);
        let profiled = wlq(&["query", p, pattern, "--count", "--profile"]);
        assert!(profiled.status.success(), "{}", stderr(&profiled));
        let text = stdout(&profiled);
        assert_eq!(
            text.lines().next().unwrap(),
            stdout(&plain).trim(),
            "profiled count diverged on {pattern}"
        );
    }
    // A predicate is outside the counting DP's fragment: the executor
    // runs, and its per-node table follows the answer.
    let out = wlq(&[
        "query",
        p,
        "GetRefer[balance > 0] ~> CheckIn",
        "--count",
        "--profile",
    ]);
    let text = stdout(&out);
    assert!(text.contains("strategy : planned"), "{text}");
    assert!(text.contains("q-err  node"), "{text}");

    // --naive routes the profiled run through the paper's operators.
    let out = wlq(&["query", p, "SeeDoctor", "--profile", "--naive", "--exists"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("strategy : naive-paper"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn count_profile_reports_the_counting_dp() {
    // One instance: START, twelve `t`, END.
    let path = temp_path("dp.txt");
    let p = path.to_str().unwrap();
    let mut log = String::from("lsn | wid | is-lsn | t | in | out\n");
    let names = std::iter::once("START")
        .chain(std::iter::repeat_n("t", 12))
        .chain(std::iter::once("END"));
    for (i, name) in names.enumerate() {
        log.push_str(&format!("{} | 1 | {} | {name} | - | -\n", i + 1, i + 1));
    }
    std::fs::write(&path, log).unwrap();

    // C(12, 5) incidents, counted by the DP: no executor table.
    let out = wlq(&["query", p, "t -> t -> t -> t -> t", "--count", "--profile"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().next(), Some("792"), "{text}");
    assert!(text.contains("count DP"), "{text}");
    assert!(!text.contains("scan t"), "{text}");

    // No executor runs, so there is no trace to write.
    let out = wlq(&[
        "query",
        p,
        "t -> t",
        "--count",
        "--profile",
        "--trace-out",
        "/tmp/unused.jsonl",
    ]);
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_check_rejects_invalid_traces() {
    let path = temp_path("bad.jsonl");
    let p = path.to_str().unwrap();
    std::fs::write(&path, "{\"event\":\"trace_begin\",\"version\":99}\n").unwrap();
    let out = wlq(&["trace-check", p]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("invalid trace"));

    let out = wlq(&["trace-check", "/nonexistent/trace.jsonl"]);
    assert_eq!(out.status.code(), Some(4));

    std::fs::remove_file(&path).ok();
}

/// A reader that has gone (`wlq … | head`, `| true`) ends the command
/// quietly: exit 0, no panic, whichever command was writing.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let path = temp_path("closed-stdout.bin");
    let p = path.to_str().unwrap();
    assert!(wlq(&["simulate", "clinic", "200", "7", p]).status.success());
    for args in [
        &["query", p, "SeeDoctor & PayTreatment", "--by-instance"][..],
        &["query", p, "SeeDoctor & PayTreatment"],
        &["stats", p],
    ] {
        // The read end is closed before the child starts, so its first
        // write fails.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_wlq"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{args:?}");
    }
    std::fs::remove_file(&path).ok();
}
