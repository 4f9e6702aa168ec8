//! End-to-end tests of the `serenity` binary (spawned as a subprocess).

use std::process::{Command, Output};

fn serenity(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serenity")).args(args).output().expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn list_names_all_benchmarks() {
    let out = serenity(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for id in ["darts-normal", "swiftnet-a", "randwire-c100-c", "swiftnet-full"] {
        assert!(text.contains(id), "missing {id} in:\n{text}");
    }
}

#[test]
fn generate_schedule_round_trip() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cell_c.json");
    let path_str = path.to_str().unwrap();

    let out = serenity(&["generate", "swiftnet-c", "-o", path_str]);
    assert!(out.status.success(), "generate failed: {out:?}");
    assert!(path.exists());

    let out = serenity(&["schedule", path_str]);
    assert!(out.status.success(), "schedule failed: {out:?}");
    let text = stdout(&out);
    assert!(text.contains("reduction"));
    assert!(text.contains("serenity peak"));

    let out = serenity(&["schedule", path_str, "--json", "--no-rewrite"]);
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert!(report["peak_bytes"].as_u64().unwrap() > 0);
    assert_eq!(report["rewrites"].as_array().unwrap().len(), 0);
}

#[test]
fn dot_renders_graphviz() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dot_cell.json");
    let path_str = path.to_str().unwrap();
    assert!(serenity(&["generate", "swiftnet-b", "-o", path_str]).status.success());

    let out = serenity(&["dot", path_str]);
    assert!(out.status.success());
    assert!(stdout(&out).starts_with("digraph"));
}

#[test]
fn traffic_reports_zero_when_fitting() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("traffic_cell.json");
    let path_str = path.to_str().unwrap();
    assert!(serenity(&["generate", "swiftnet-c", "-o", path_str]).status.success());

    let out = serenity(&["traffic", path_str, "--capacity-kb", "512"]);
    assert!(out.status.success(), "traffic failed: {out:?}");
    assert!(stdout(&out).contains("total traffic : 0.0 KiB"));
}

#[test]
fn bad_usage_exits_with_code_2() {
    let out = serenity(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_file_fails_cleanly() {
    let out = serenity(&["schedule", "/nonexistent/graph.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn unknown_benchmark_fails_cleanly() {
    let out = serenity(&["generate", "not-a-network"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

#[test]
fn backends_lists_every_registered_scheduler() {
    let out = serenity(&["backends"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in ["dp", "adaptive", "beam", "kahn", "dfs", "greedy", "brute-force", "portfolio"] {
        assert!(text.lines().any(|l| l == name), "missing backend {name} in:\n{text}");
    }
}

#[test]
fn scheduler_flag_selects_registered_backends() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("backend_cell.json");
    let path_str = path.to_str().unwrap();
    assert!(serenity(&["generate", "swiftnet-c", "-o", path_str]).status.success());

    let mut peaks = Vec::new();
    for name in ["greedy", "kahn", "portfolio"] {
        let out = serenity(&["schedule", path_str, "--scheduler", name, "--json"]);
        assert!(out.status.success(), "--scheduler {name} failed: {out:?}");
        let report: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
        peaks.push((name, report["peak_bytes"].as_u64().unwrap()));
    }
    // The portfolio is never worse than its members.
    let portfolio = peaks.iter().find(|(n, _)| *n == "portfolio").unwrap().1;
    for (name, peak) in &peaks {
        assert!(portfolio <= *peak, "portfolio ({portfolio}) lost to {name} ({peak})");
    }
}

#[test]
fn threads_flag_drives_parallel_dp_expansion() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("threads_cell.json");
    let path_str = path.to_str().unwrap();
    assert!(serenity(&["generate", "randwire-c10-a", "-o", path_str]).status.success());

    // Parallel expansion is deterministic and serial-equal: the dp backend
    // must report the same peak (and order) at any thread count.
    let mut reports = Vec::new();
    for threads in ["1", "4"] {
        let out =
            serenity(&["schedule", path_str, "--scheduler", "dp", "--threads", threads, "--json"]);
        assert!(out.status.success(), "--threads {threads} failed: {out:?}");
        let report: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
        reports.push(report);
    }
    assert_eq!(reports[0]["peak_bytes"], reports[1]["peak_bytes"]);
    assert_eq!(reports[0]["order"], reports[1]["order"]);
}

#[test]
fn threads_flag_validates_its_argument_and_target() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("threads_bad_cell.json");
    let path_str = path.to_str().unwrap();
    assert!(serenity(&["generate", "swiftnet-c", "-o", path_str]).status.success());

    // Zero threads is a usage error (exit 2, from the parser).
    let out = serenity(&["schedule", path_str, "--scheduler", "dp", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));

    // Threads only make sense for backends with a parallel inner loop.
    let out = serenity(&["schedule", path_str, "--scheduler", "kahn", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads only applies"), "stderr: {stderr}");
}

#[test]
fn rewrite_threads_flag_is_serial_equal() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rewrite_threads_cell.json");
    let path_str = path.to_str().unwrap();
    // swiftnet-c has real rewrite sites, so the loop actually runs.
    assert!(serenity(&["generate", "swiftnet-c", "-o", path_str]).status.success());

    let mut reports = Vec::new();
    for threads in ["1", "2", "4"] {
        let out = serenity(&["schedule", path_str, "--rewrite-threads", threads, "--json"]);
        assert!(out.status.success(), "--rewrite-threads {threads} failed: {out:?}");
        let report: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
        reports.push(report);
    }
    for report in &reports[1..] {
        assert_eq!(reports[0]["peak_bytes"], report["peak_bytes"]);
        assert_eq!(reports[0]["order"], report["order"]);
        assert_eq!(reports[0]["rewrites"], report["rewrites"]);
        let serial = &reports[0]["rewrite_search"];
        let parallel = &report["rewrite_search"];
        for field in ["iterations", "candidates_scored", "applied", "memo_hits", "memo_misses"] {
            assert_eq!(serial[field], parallel[field], "summary field {field} diverged");
        }
    }

    // Zero threads is a usage error; combining with --no-rewrite conflicts.
    let out = serenity(&["schedule", path_str, "--rewrite-threads", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let out = serenity(&["schedule", path_str, "--no-rewrite", "--rewrite-threads", "2"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_scheduler_fails_with_the_available_names() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unknown_sched_cell.json");
    let path_str = path.to_str().unwrap();
    assert!(serenity(&["generate", "swiftnet-c", "-o", path_str]).status.success());

    let out = serenity(&["schedule", path_str, "--scheduler", "martian"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scheduler"), "stderr: {stderr}");
    assert!(stderr.contains("portfolio"), "stderr should list alternatives: {stderr}");
}

#[test]
fn rewrite_loop_flags_drive_the_search() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rewrite_cell.json");
    let path_str = path.to_str().unwrap();
    assert!(serenity(&["generate", "swiftnet-c", "-o", path_str]).status.success());

    // Default run reports the search summary in JSON.
    let out = serenity(&["schedule", path_str, "--json"]);
    assert!(out.status.success(), "schedule failed: {out:?}");
    let report: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    let search = &report["rewrite_search"];
    assert!(search.as_object().is_some(), "rewrite_search section missing from JSON report");
    assert!(search["candidates_scored"].as_u64().is_some());
    let default_peak = report["peak_bytes"].as_u64().unwrap();

    // --rewrite-iters 0 disables the loop entirely (like --no-rewrite).
    let out = serenity(&["schedule", path_str, "--rewrite-iters", "0", "--json"]);
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert!(report["rewrite_search"].is_null());
    assert_eq!(report["rewrites"].as_array().unwrap().len(), 0);
    let off_peak = report["peak_bytes"].as_u64().unwrap();
    assert!(default_peak <= off_peak, "rewrite loop must never lose to rewrite-off");

    // A custom scoring backend is accepted; an unknown one fails cleanly.
    let out = serenity(&[
        "schedule",
        path_str,
        "--rewrite-iters",
        "2",
        "--rewrite-score-backend",
        "greedy",
        "--json",
    ]);
    assert!(out.status.success(), "custom scorer failed: {out:?}");
    let report: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert!(report["rewrite_search"]["iterations"].as_u64().unwrap() <= 2);
    assert!(report["peak_bytes"].as_u64().unwrap() <= off_peak);

    let out = serenity(&["schedule", path_str, "--rewrite-score-backend", "martian"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown rewrite score backend"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn verbose_narrates_the_rewrite_search() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("verbose_cell.json");
    let path_str = path.to_str().unwrap();
    assert!(serenity(&["generate", "swiftnet-c", "-o", path_str]).status.success());

    let out = serenity(&["schedule", path_str, "--verbose"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("search   :"), "search summary line missing:\n{stderr}");
    // The rewritten cell peaks below the original's lower bound, so the
    // original is never scheduled, and the narration says why.
    assert!(stderr.contains("skipped the original graph"), "skip line missing:\n{stderr}");
    assert!(!stderr.contains("scheduling the original graph"), "original scheduled:\n{stderr}");
}

#[test]
fn spent_deadline_aborts_with_a_deadline_error() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deadline_cell.json");
    let path_str = path.to_str().unwrap();
    assert!(serenity(&["generate", "swiftnet-c", "-o", path_str]).status.success());

    let out = serenity(&["schedule", path_str, "--deadline-ms", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("deadline"));
}

#[test]
fn batch_schedule_shares_the_compile_cache() {
    let dir = std::env::temp_dir().join("serenity_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("batch_a.json");
    let b = dir.join("batch_b.json");
    let (a_str, b_str) = (a.to_str().unwrap(), b.to_str().unwrap());
    assert!(serenity(&["generate", "swiftnet-c", "-o", a_str]).status.success());
    assert!(serenity(&["generate", "swiftnet-c", "-o", b_str]).status.success());

    // Two structurally identical graphs in one batch: the second compile
    // must replay the first one's schedules from the shared cache, and
    // both must report identical results.
    let out = serenity(&["schedule", a_str, b_str, "--json"]);
    assert!(out.status.success(), "batch schedule failed: {out:?}");
    let report: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    let graphs = report["graphs"].as_array().expect("batch report wraps per-graph reports");
    assert_eq!(graphs.len(), 2);
    assert_eq!(graphs[0]["peak_bytes"], graphs[1]["peak_bytes"]);
    assert_eq!(graphs[0]["order"], graphs[1]["order"]);
    assert!(
        graphs[1]["cache_hits"].as_u64().unwrap() > 0,
        "second graph must hit the cache: {report:?}"
    );
    assert!(report["cache"]["hits"].as_u64().unwrap() > 0);
    assert!(
        report["cache"]["hit_rate"].as_f64().unwrap() > 0.0,
        "JSON cache footer must report the hit rate: {report:?}"
    );
    assert!(report["cache"]["insertions"].as_u64().unwrap() > 0);
    assert_eq!(report["cache"]["rejected_admissions"].as_u64(), Some(0));

    // --cache-bytes 0 disables caching (and the summary shows no cache).
    let out = serenity(&["schedule", a_str, b_str, "--cache-bytes", "0", "--json"]);
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert!(report["cache"].is_null());
    assert_eq!(report["graphs"][1]["cache_hits"].as_u64(), Some(0));

    // Table mode prints the cache footer for batches, hit rate included.
    let out = serenity(&["schedule", a_str, b_str]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("compile cache :"), "cache footer missing:\n{text}");
    assert!(text.contains("hit rate"), "hit rate missing from footer:\n{text}");
    assert!(text.contains("insertions"), "insertions missing from footer:\n{text}");
}

#[test]
fn serve_subcommand_answers_http_and_shuts_down() {
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};

    let dir = std::env::temp_dir().join("serenity_cli_serve_test");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("serve_cell.json");
    let graph_str = graph_path.to_str().unwrap();
    assert!(serenity(&["generate", "swiftnet-c", "-o", graph_str]).status.success());
    let graph_json = std::fs::read_to_string(&graph_path).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_serenity"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2", "--allow-shutdown"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    // The server announces its ephemeral address on stderr once bound.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("serving on http://").unwrap_or_else(|| {
        let _ = child.kill();
        panic!("unexpected announcement: {line}");
    });

    let result = (|| -> Result<(), String> {
        let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let request = format!(
            "POST /compile HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{graph_json}",
            graph_json.len()
        );
        stream.write_all(request.as_bytes()).map_err(|e| format!("write: {e}"))?;
        let mut response = String::new();
        stream.read_to_string(&mut response).map_err(|e| format!("read: {e}"))?;
        if !response.starts_with("HTTP/1.1 200") {
            return Err(format!("compile over HTTP failed:\n{response}"));
        }
        if !response.contains("\"peak_bytes\"") {
            return Err(format!("response body missing schedule:\n{response}"));
        }

        let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .write_all(
                b"POST /shutdown HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                  Content-Length: 0\r\n\r\n",
            )
            .map_err(|e| format!("write: {e}"))?;
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        Ok(())
    })();
    if let Err(reason) = result {
        let _ = child.kill();
        panic!("{reason}");
    }
    let status = child.wait().expect("server exits");
    assert!(status.success(), "server exited uncleanly: {status:?}");
}

/// SIGTERM drains the server gracefully: in-flight work finishes, the
/// process exits cleanly, and `--persist` writes a snapshot on the way out.
#[cfg(unix)]
#[test]
fn serve_drains_and_persists_on_sigterm() {
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};

    let dir = std::env::temp_dir().join("serenity_cli_sigterm_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("drain_cell.json");
    let graph_str = graph_path.to_str().unwrap();
    assert!(serenity(&["generate", "swiftnet-c", "-o", graph_str]).status.success());
    let graph_json = std::fs::read_to_string(&graph_path).unwrap();
    let persist_dir = dir.join("snapshots");
    let persist_str = persist_dir.to_str().unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_serenity"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2", "--persist", persist_str])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| {
            let _ = child.kill();
            panic!("unexpected announcement: {line}");
        })
        .to_string();

    let result = (|| -> Result<(), String> {
        let mut stream =
            std::net::TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let request = format!(
            "POST /compile HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{graph_json}",
            graph_json.len()
        );
        stream.write_all(request.as_bytes()).map_err(|e| format!("write: {e}"))?;
        let mut response = String::new();
        stream.read_to_string(&mut response).map_err(|e| format!("read: {e}"))?;
        if !response.starts_with("HTTP/1.1 200") {
            return Err(format!("compile over HTTP failed:\n{response}"));
        }
        Ok(())
    })();
    if let Err(reason) = result {
        let _ = child.kill();
        panic!("{reason}");
    }

    let kill =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    assert!(kill.success(), "kill -TERM failed");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "server did not drain cleanly on SIGTERM: {status:?}");

    // Drain the rest of stderr so the persistence announcement is visible.
    let mut rest = String::new();
    let _ = stderr.read_to_string(&mut rest);
    assert!(
        rest.contains("cache persisted"),
        "missing persistence announcement on stderr:\n{line}{rest}"
    );
    let shards: Vec<_> = std::fs::read_dir(&persist_dir)
        .expect("persist dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("shard-") && name.ends_with(".json")
        })
        .collect();
    assert!(!shards.is_empty(), "no snapshot shards written to {persist_dir:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
