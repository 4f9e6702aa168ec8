//! Hand-rolled argument parsing (the workspace deliberately avoids
//! dependencies outside its allowed set, so no `clap`).

use serenity_allocator::Strategy;
use serenity_core::capacity::{CapacityObjective, CapacityTarget};
use serenity_memsim::Policy;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
usage:
  serenity list                                  list benchmark ids
  serenity backends                              list scheduler backends
  serenity suite                                 schedule every benchmark
  serenity generate <id|swiftnet-full> [-o FILE] emit a benchmark graph as JSON
  serenity schedule <graph.json> [more.json ...] [options]
                                                 schedule one or more graphs
                                                 (batch mode shares one
                                                 compile cache across graphs)
      --scheduler <name>      scheduling backend (see `serenity backends`;
                              default adaptive)
      --cache-bytes <N>       byte budget of the process-wide compile cache
                              (default 64 MiB; 0 disables caching)
      --no-rewrite            disable identity graph rewriting
      --rewrite-iters <N>     cap the cost-guided rewrite loop at N accepted
                              candidates (0 disables rewriting; default 32)
      --rewrite-score-backend <name>
                              backend scoring rewrite candidates
                              (default beam; the final winner is always
                              re-scheduled by the full backend)
      --rewrite-threads <N>   worker threads scoring rewrite candidates
                              (default 1; any count is bit-identical)
      --allocator <greedy|first-fit|none>        offset planner (default greedy)
      --budget-kb <N>         fixed soft budget instead of adaptive search
      --capacity-bytes <N>    on-chip capacity: annotate (and verify) each
                              schedule with a fits/traffic capacity report
      --objective <fit|traffic>
                              what the capacity constraint steers (default
                              fit; traffic re-ranks candidate schedules by
                              (fits, off-chip traffic, peak));
                              needs --capacity-bytes
      --threads <N>           DP worker threads (default 1)
      --deadline-ms <N>       abort compilation after N milliseconds
      --verify                independently re-check the compiled schedule
                              (topological order, scan-path peak, arena,
                              rewrite replay) and print the certificate;
                              a mismatch fails the command
      --verbose               narrate compile events to stderr
      --json                  machine-readable output
      --map                   print the ASCII arena memory map
  serenity serve [options]                       run the long-lived compile
                                                 service (POST graph JSON to
                                                 /compile, stats on /status)
      --addr <host:port>      bind address (default 127.0.0.1:7878; port 0
                              picks an ephemeral port)
      --threads <N>           worker threads (default 4)
      --queue <N>             accepted connections queued before shedding
                              with 503 (default 64)
      --scheduler <name>      scheduling backend (see `serenity backends`;
                              default adaptive)
      --cache-bytes <N>       byte budget of the shared compile cache
                              (default 64 MiB)
      --persist <DIR>         warm-load the cache from DIR at startup and
                              save it there on POST /persist or shutdown
      --deadline-ms <N>       default compile deadline applied to requests
                              without their own ?deadline_ms=
      --max-body-bytes <N>    largest accepted request body
                              (default 8 MiB)
      --allow-shutdown        honour POST /shutdown (for tests/benchmarks)
      --degrade <chain|none>  fallback backends tried in order when the
                              primary fails or panics (comma-separated,
                              e.g. beam,kahn; default beam,kahn; none
                              disables degradation)
      --search-budget-bytes <N>
                              hard cap on live search memory per compile;
                              also caps per-request ?search_budget= values
                              (exceeding it fails the rung into the
                              degradation ladder, or answers 413)
      --fault-plan <spec>     TEST ONLY: arm deterministic fault injection,
                              e.g. compile-panic=2,persist-io=p0.5
                              (seeded by SERENITY_FAULT_SEED, default 0)
  serenity dot <graph.json>                      emit Graphviz Dot
  serenity info <graph.json>                     structural analysis
  serenity traffic <graph.json> --capacity-kb <N> [--policy belady|lru|fifo]
                                                 off-chip traffic of the
                                                 SERENITY schedule";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print benchmark ids.
    List,
    /// Print registered scheduler backend names.
    Backends,
    /// Schedule the whole benchmark suite and print the comparison table.
    Suite,
    /// Emit a benchmark graph as JSON.
    Generate {
        /// Benchmark id or `swiftnet-full`.
        id: String,
        /// Output path (stdout when absent).
        output: Option<String>,
    },
    /// Schedule one or more graphs from JSON files (batch mode: all graphs
    /// compile in one process and share one compile cache).
    Schedule {
        /// Input paths, in compile order (at least one).
        paths: Vec<String>,
        /// Backend name from the registry (`None` = default adaptive, or
        /// DP when a fixed budget is given).
        scheduler: Option<String>,
        /// Disable rewriting.
        no_rewrite: bool,
        /// Iteration cap of the cost-guided rewrite loop (`None` = default).
        rewrite_iters: Option<usize>,
        /// Backend scoring rewrite candidates (`None` = default beam).
        rewrite_score_backend: Option<String>,
        /// Worker threads scoring rewrite candidates.
        rewrite_threads: usize,
        /// Offset planner, `None` to skip allocation.
        allocator: Option<Strategy>,
        /// Fixed soft budget in KiB (adaptive search when absent).
        budget_kb: Option<u64>,
        /// On-chip capacity target (`None` = unconstrained).
        capacity: Option<CapacityTarget>,
        /// DP worker threads.
        threads: usize,
        /// Wall-clock compile deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Compile-cache byte budget (`None` = default 64 MiB, `Some(0)`
        /// disables caching).
        cache_bytes: Option<u64>,
        /// Independently verify each compiled schedule and print (or, with
        /// `--json`, embed) the certificate; a mismatch fails the command.
        verify: bool,
        /// Narrate compile events to stderr.
        verbose: bool,
        /// Emit JSON instead of a table.
        json: bool,
        /// Print the ASCII arena memory map.
        map: bool,
    },
    /// Run the long-lived compile service.
    Serve {
        /// Bind address (`host:port`; port 0 for ephemeral).
        addr: String,
        /// Worker threads.
        threads: usize,
        /// Accept-queue capacity before 503 shedding.
        queue: usize,
        /// Backend name from the registry (`None` = default adaptive).
        scheduler: Option<String>,
        /// Compile-cache byte budget (`None` = default 64 MiB).
        cache_bytes: Option<u64>,
        /// Cache persistence directory (disabled when absent).
        persist: Option<String>,
        /// Default compile deadline in milliseconds for requests without
        /// their own `?deadline_ms=`.
        deadline_ms: Option<u64>,
        /// Largest accepted request body (`None` = default 8 MiB).
        max_body_bytes: Option<u64>,
        /// Whether `POST /shutdown` stops the server.
        allow_shutdown: bool,
        /// Fault-injection plan spec (test only; `None` = no injection).
        fault_plan: Option<String>,
        /// Degradation ladder: comma-separated backend names, `Some("none")`
        /// normalised to an empty chain. `None` = the default ladder.
        degrade: Option<String>,
        /// Server-wide search-memory budget in bytes (`None` = unbudgeted;
        /// also the cap on per-request `?search_budget=` values).
        search_budget_bytes: Option<u64>,
    },
    /// Emit Graphviz Dot for a graph file.
    Dot {
        /// Input path.
        path: String,
    },
    /// Print structural analysis of a graph file.
    Info {
        /// Input path.
        path: String,
    },
    /// Simulate off-chip traffic for the SERENITY schedule of a graph.
    Traffic {
        /// Input path.
        path: String,
        /// On-chip capacity in KiB.
        capacity_kb: u64,
        /// Replacement policy.
        policy: Policy,
    },
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message describing the first problem.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter().map(String::as_str);
    let sub = it.next().ok_or("missing subcommand")?;
    match sub {
        "-h" | "--help" | "help" => Err("help requested".into()),
        "list" => Ok(Command::List),
        "backends" => Ok(Command::Backends),
        "suite" => Ok(Command::Suite),
        "generate" => {
            let id = it.next().ok_or("generate: missing benchmark id")?.to_owned();
            let mut output = None;
            while let Some(flag) = it.next() {
                match flag {
                    "-o" | "--output" => {
                        output = Some(it.next().ok_or("generate: -o needs a path")?.to_owned());
                    }
                    other => return Err(format!("generate: unknown flag {other}")),
                }
            }
            Ok(Command::Generate { id, output })
        }
        "schedule" => {
            let path = it.next().ok_or("schedule: missing graph path")?.to_owned();
            let mut paths = vec![path];
            let mut scheduler = None;
            let mut no_rewrite = false;
            let mut rewrite_iters = None;
            let mut rewrite_score_backend = None;
            let mut rewrite_threads = 1usize;
            let mut allocator = Some(Strategy::GreedyBySize);
            let mut budget_kb = None;
            let mut capacity_bytes = None;
            let mut objective = None;
            let mut threads = 1usize;
            let mut deadline_ms = None;
            let mut cache_bytes = None;
            let mut verify = false;
            let mut verbose = false;
            let mut json = false;
            let mut map = false;
            while let Some(flag) = it.next() {
                match flag {
                    more if !more.starts_with('-') => paths.push(more.to_owned()),
                    "--no-rewrite" => no_rewrite = true,
                    "--verify" => verify = true,
                    "--verbose" => verbose = true,
                    "--json" => json = true,
                    "--map" => map = true,
                    "--scheduler" => {
                        scheduler =
                            Some(it.next().ok_or("schedule: --scheduler needs a name")?.to_owned());
                    }
                    "--rewrite-iters" => {
                        let raw = it.next().ok_or("schedule: --rewrite-iters needs a value")?;
                        rewrite_iters =
                            Some(raw.parse::<usize>().map_err(|_| {
                                format!("schedule: bad rewrite iteration cap {raw}")
                            })?);
                    }
                    "--rewrite-score-backend" => {
                        rewrite_score_backend = Some(
                            it.next()
                                .ok_or("schedule: --rewrite-score-backend needs a name")?
                                .to_owned(),
                        );
                    }
                    "--rewrite-threads" => {
                        let raw = it.next().ok_or("schedule: --rewrite-threads needs a value")?;
                        rewrite_threads = raw
                            .parse::<usize>()
                            .map_err(|_| format!("schedule: bad rewrite thread count {raw}"))?;
                        if rewrite_threads == 0 {
                            return Err("schedule: --rewrite-threads must be at least 1".into());
                        }
                    }
                    "--deadline-ms" => {
                        let raw = it.next().ok_or("schedule: --deadline-ms needs a value")?;
                        deadline_ms = Some(
                            raw.parse::<u64>()
                                .map_err(|_| format!("schedule: bad deadline {raw}"))?,
                        );
                    }
                    "--cache-bytes" => {
                        let raw = it.next().ok_or("schedule: --cache-bytes needs a value")?;
                        cache_bytes = Some(
                            raw.parse::<u64>()
                                .map_err(|_| format!("schedule: bad cache budget {raw}"))?,
                        );
                    }
                    "--allocator" => {
                        allocator = match it.next().ok_or("schedule: --allocator needs a value")? {
                            "greedy" => Some(Strategy::GreedyBySize),
                            "first-fit" => Some(Strategy::FirstFitArena),
                            "none" => None,
                            other => return Err(format!("schedule: unknown allocator {other}")),
                        };
                    }
                    "--budget-kb" => {
                        let raw = it.next().ok_or("schedule: --budget-kb needs a value")?;
                        budget_kb = Some(
                            raw.parse::<u64>()
                                .map_err(|_| format!("schedule: bad budget {raw}"))?,
                        );
                    }
                    "--capacity-bytes" => {
                        let raw = it.next().ok_or("schedule: --capacity-bytes needs a value")?;
                        let bytes = raw
                            .parse::<u64>()
                            .map_err(|_| format!("schedule: bad capacity {raw}"))?;
                        if bytes == 0 {
                            return Err("schedule: --capacity-bytes must be at least 1".into());
                        }
                        capacity_bytes = Some(bytes);
                    }
                    "--objective" => {
                        objective = match it.next().ok_or("schedule: --objective needs a value")? {
                            "fit" => Some(CapacityObjective::Fit),
                            "traffic" => Some(CapacityObjective::MinTraffic),
                            other => return Err(format!("schedule: unknown objective {other}")),
                        };
                    }
                    "--threads" => {
                        let raw = it.next().ok_or("schedule: --threads needs a value")?;
                        threads = raw
                            .parse::<usize>()
                            .map_err(|_| format!("schedule: bad thread count {raw}"))?;
                        if threads == 0 {
                            return Err("schedule: --threads must be at least 1".into());
                        }
                    }
                    other => return Err(format!("schedule: unknown flag {other}")),
                }
            }
            if scheduler.is_some() && budget_kb.is_some() {
                return Err("schedule: --budget-kb configures the dp backend and conflicts with \
                     --scheduler; pick one"
                    .into());
            }
            if no_rewrite
                && (rewrite_iters.is_some()
                    || rewrite_score_backend.is_some()
                    || rewrite_threads != 1)
            {
                return Err("schedule: --rewrite-iters/--rewrite-score-backend/--rewrite-threads \
                     configure the rewrite loop and conflict with --no-rewrite; pick one"
                    .into());
            }
            if rewrite_iters == Some(0) && rewrite_score_backend.is_some() {
                return Err("schedule: --rewrite-iters 0 disables the rewrite loop, so \
                     --rewrite-score-backend would be ignored; drop one"
                    .into());
            }
            let capacity = match (capacity_bytes, objective) {
                (Some(bytes), obj) => Some(CapacityTarget {
                    capacity_bytes: bytes,
                    objective: obj.unwrap_or_default(),
                }),
                (None, Some(_)) => {
                    return Err("schedule: --objective steers the capacity constraint and \
                         needs --capacity-bytes"
                        .into())
                }
                (None, None) => None,
            };
            Ok(Command::Schedule {
                paths,
                scheduler,
                no_rewrite,
                rewrite_iters,
                rewrite_score_backend,
                rewrite_threads,
                allocator,
                budget_kb,
                capacity,
                threads,
                deadline_ms,
                cache_bytes,
                verify,
                verbose,
                json,
                map,
            })
        }
        "serve" => {
            let mut addr = "127.0.0.1:7878".to_owned();
            let mut threads = 4usize;
            let mut queue = 64usize;
            let mut scheduler = None;
            let mut cache_bytes = None;
            let mut persist = None;
            let mut deadline_ms = None;
            let mut max_body_bytes = None;
            let mut allow_shutdown = false;
            let mut fault_plan = None;
            let mut degrade = None;
            let mut search_budget_bytes = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--allow-shutdown" => allow_shutdown = true,
                    "--fault-plan" => {
                        fault_plan =
                            Some(it.next().ok_or("serve: --fault-plan needs a spec")?.to_owned());
                    }
                    "--degrade" => {
                        degrade =
                            Some(it.next().ok_or("serve: --degrade needs a chain")?.to_owned());
                    }
                    "--addr" => addr = it.next().ok_or("serve: --addr needs a value")?.to_owned(),
                    "--scheduler" => {
                        scheduler =
                            Some(it.next().ok_or("serve: --scheduler needs a name")?.to_owned());
                    }
                    "--persist" => {
                        persist =
                            Some(it.next().ok_or("serve: --persist needs a path")?.to_owned());
                    }
                    "--threads" => {
                        let raw = it.next().ok_or("serve: --threads needs a value")?;
                        threads = raw
                            .parse::<usize>()
                            .map_err(|_| format!("serve: bad thread count {raw}"))?;
                        if threads == 0 {
                            return Err("serve: --threads must be at least 1".into());
                        }
                    }
                    "--queue" => {
                        let raw = it.next().ok_or("serve: --queue needs a value")?;
                        queue = raw
                            .parse::<usize>()
                            .map_err(|_| format!("serve: bad queue capacity {raw}"))?;
                        if queue == 0 {
                            return Err("serve: --queue must be at least 1".into());
                        }
                    }
                    "--cache-bytes" => {
                        let raw = it.next().ok_or("serve: --cache-bytes needs a value")?;
                        cache_bytes = Some(
                            raw.parse::<u64>()
                                .map_err(|_| format!("serve: bad cache budget {raw}"))?,
                        );
                    }
                    "--deadline-ms" => {
                        let raw = it.next().ok_or("serve: --deadline-ms needs a value")?;
                        deadline_ms = Some(
                            raw.parse::<u64>().map_err(|_| format!("serve: bad deadline {raw}"))?,
                        );
                    }
                    "--max-body-bytes" => {
                        let raw = it.next().ok_or("serve: --max-body-bytes needs a value")?;
                        max_body_bytes = Some(
                            raw.parse::<u64>()
                                .map_err(|_| format!("serve: bad body limit {raw}"))?,
                        );
                    }
                    "--search-budget-bytes" => {
                        let raw = it.next().ok_or("serve: --search-budget-bytes needs a value")?;
                        let bytes = raw
                            .parse::<u64>()
                            .map_err(|_| format!("serve: bad search budget {raw}"))?;
                        if bytes == 0 {
                            return Err("serve: --search-budget-bytes 0 would refuse every \
                                 compile; give it a budget"
                                .into());
                        }
                        search_budget_bytes = Some(bytes);
                    }
                    other => return Err(format!("serve: unknown flag {other}")),
                }
            }
            if cache_bytes == Some(0) {
                return Err("serve: --cache-bytes 0 would disable the cache the service is \
                     built around; give it a budget"
                    .into());
            }
            Ok(Command::Serve {
                addr,
                threads,
                queue,
                scheduler,
                cache_bytes,
                persist,
                deadline_ms,
                max_body_bytes,
                allow_shutdown,
                fault_plan,
                degrade,
                search_budget_bytes,
            })
        }
        "dot" => {
            let path = it.next().ok_or("dot: missing graph path")?.to_owned();
            Ok(Command::Dot { path })
        }
        "info" => {
            let path = it.next().ok_or("info: missing graph path")?.to_owned();
            Ok(Command::Info { path })
        }
        "traffic" => {
            let path = it.next().ok_or("traffic: missing graph path")?.to_owned();
            let mut capacity_kb = None;
            let mut policy = Policy::Belady;
            while let Some(flag) = it.next() {
                match flag {
                    "--capacity-kb" => {
                        let raw = it.next().ok_or("traffic: --capacity-kb needs a value")?;
                        capacity_kb = Some(
                            raw.parse::<u64>()
                                .map_err(|_| format!("traffic: bad capacity {raw}"))?,
                        );
                    }
                    "--policy" => {
                        policy = match it.next().ok_or("traffic: --policy needs a value")? {
                            "belady" => Policy::Belady,
                            "lru" => Policy::Lru,
                            "fifo" => Policy::Fifo,
                            other => return Err(format!("traffic: unknown policy {other}")),
                        };
                    }
                    other => return Err(format!("traffic: unknown flag {other}")),
                }
            }
            let capacity_kb = capacity_kb.ok_or("traffic: --capacity-kb is required")?;
            Ok(Command::Traffic { path, capacity_kb, policy })
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(parse(&args("list")).unwrap(), Command::List);
        assert_eq!(parse(&args("suite")).unwrap(), Command::Suite);
        assert_eq!(parse(&args("dot g.json")).unwrap(), Command::Dot { path: "g.json".into() });
        assert_eq!(parse(&args("info g.json")).unwrap(), Command::Info { path: "g.json".into() });
    }

    #[test]
    fn parses_generate() {
        assert_eq!(
            parse(&args("generate swiftnet-a -o out.json")).unwrap(),
            Command::Generate { id: "swiftnet-a".into(), output: Some("out.json".into()) }
        );
    }

    #[test]
    fn parses_schedule_flags() {
        let cmd = parse(&args(
            "schedule g.json --no-rewrite --allocator first-fit --budget-kb 256 --threads 4 --json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Schedule {
                paths: vec!["g.json".into()],
                scheduler: None,
                no_rewrite: true,
                rewrite_iters: None,
                rewrite_score_backend: None,
                rewrite_threads: 1,
                allocator: Some(Strategy::FirstFitArena),
                budget_kb: Some(256),
                capacity: None,
                threads: 4,
                deadline_ms: None,
                cache_bytes: None,
                verify: false,
                verbose: false,
                json: true,
                map: false,
            }
        );
    }

    #[test]
    fn parses_batch_paths_and_cache_budget() {
        let cmd = parse(&args("schedule a.json b.json c.json --cache-bytes 1048576")).unwrap();
        match cmd {
            Command::Schedule { paths, cache_bytes, .. } => {
                assert_eq!(paths, vec!["a.json", "b.json", "c.json"]);
                assert_eq!(cache_bytes, Some(1_048_576));
            }
            other => panic!("unexpected parse {other:?}"),
        }
        // 0 disables caching; non-numeric budgets are rejected.
        assert!(parse(&args("schedule g.json --cache-bytes 0")).is_ok());
        assert!(parse(&args("schedule g.json --cache-bytes lots")).is_err());
        // Positional paths may come after flags too.
        let cmd = parse(&args("schedule a.json --json b.json")).unwrap();
        match cmd {
            Command::Schedule { paths, json, .. } => {
                assert_eq!(paths, vec!["a.json", "b.json"]);
                assert!(json);
            }
            other => panic!("unexpected parse {other:?}"),
        }
    }

    #[test]
    fn schedule_defaults() {
        let cmd = parse(&args("schedule g.json")).unwrap();
        assert_eq!(
            cmd,
            Command::Schedule {
                paths: vec!["g.json".into()],
                scheduler: None,
                no_rewrite: false,
                rewrite_iters: None,
                rewrite_score_backend: None,
                rewrite_threads: 1,
                allocator: Some(Strategy::GreedyBySize),
                budget_kb: None,
                capacity: None,
                threads: 1,
                deadline_ms: None,
                cache_bytes: None,
                verify: false,
                verbose: false,
                json: false,
                map: false,
            }
        );
    }

    #[test]
    fn parses_verify_flag() {
        let cmd = parse(&args("schedule g.json --verify")).unwrap();
        match cmd {
            Command::Schedule { verify, .. } => assert!(verify),
            other => panic!("unexpected parse {other:?}"),
        }
    }

    #[test]
    fn parses_rewrite_loop_flags() {
        let cmd =
            parse(&args("schedule g.json --rewrite-iters 3 --rewrite-score-backend dp")).unwrap();
        match cmd {
            Command::Schedule { rewrite_iters, rewrite_score_backend, .. } => {
                assert_eq!(rewrite_iters, Some(3));
                assert_eq!(rewrite_score_backend.as_deref(), Some("dp"));
            }
            other => panic!("unexpected parse {other:?}"),
        }
        // 0 is valid (disables rewriting); conflicts with --no-rewrite, and
        // with a score backend that could never run.
        assert!(parse(&args("schedule g.json --rewrite-iters 0")).is_ok());
        assert!(parse(&args("schedule g.json --no-rewrite --rewrite-iters 2")).is_err());
        assert!(parse(&args("schedule g.json --no-rewrite --rewrite-score-backend beam")).is_err());
        assert!(
            parse(&args("schedule g.json --rewrite-iters 0 --rewrite-score-backend dp")).is_err()
        );
        assert!(parse(&args("schedule g.json --rewrite-iters lots")).is_err());
    }

    #[test]
    fn parses_rewrite_threads() {
        let cmd = parse(&args("schedule g.json --rewrite-threads 4")).unwrap();
        match cmd {
            Command::Schedule { rewrite_threads, .. } => assert_eq!(rewrite_threads, 4),
            other => panic!("unexpected parse {other:?}"),
        }
        assert!(parse(&args("schedule g.json --rewrite-threads 0")).is_err());
        assert!(parse(&args("schedule g.json --rewrite-threads lots")).is_err());
        assert!(parse(&args("schedule g.json --no-rewrite --rewrite-threads 2")).is_err());
    }

    #[test]
    fn parses_serve_defaults_and_flags() {
        assert_eq!(
            parse(&args("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7878".into(),
                threads: 4,
                queue: 64,
                scheduler: None,
                cache_bytes: None,
                persist: None,
                deadline_ms: None,
                max_body_bytes: None,
                allow_shutdown: false,
                fault_plan: None,
                degrade: None,
                search_budget_bytes: None,
            }
        );
        let cmd = parse(&args(
            "serve --addr 0.0.0.0:0 --threads 8 --queue 16 --scheduler dp \
             --cache-bytes 1048576 \
             --persist /tmp/cache --deadline-ms 500 --max-body-bytes 4096 \
             --allow-shutdown --fault-plan compile-panic=2 --degrade beam,kahn \
             --search-budget-bytes 16777216",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "0.0.0.0:0".into(),
                threads: 8,
                queue: 16,
                scheduler: Some("dp".into()),
                cache_bytes: Some(1_048_576),
                persist: Some("/tmp/cache".into()),
                deadline_ms: Some(500),
                max_body_bytes: Some(4096),
                allow_shutdown: true,
                fault_plan: Some("compile-panic=2".into()),
                degrade: Some("beam,kahn".into()),
                search_budget_bytes: Some(16_777_216),
            }
        );
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(parse(&args("serve --threads 0")).is_err());
        assert!(parse(&args("serve --portfolio-threads 2")).is_err(), "the flag is gone");
        assert!(parse(&args("serve --queue 0")).is_err());
        assert!(parse(&args("serve --cache-bytes 0")).is_err());
        assert!(parse(&args("serve --deadline-ms soon")).is_err());
        assert!(parse(&args("serve --fault-plan")).is_err());
        assert!(parse(&args("serve --degrade")).is_err());
        assert!(parse(&args("serve --search-budget-bytes 0")).is_err());
        assert!(parse(&args("serve --search-budget-bytes lots")).is_err());
        assert!(parse(&args("serve --bogus")).is_err());
    }

    #[test]
    fn parses_capacity_target() {
        let cmd = parse(&args("schedule g.json --capacity-bytes 98304")).unwrap();
        match cmd {
            Command::Schedule { capacity, .. } => {
                assert_eq!(capacity, Some(CapacityTarget::fit(98_304)));
            }
            other => panic!("unexpected parse {other:?}"),
        }
        let cmd =
            parse(&args("schedule g.json --capacity-bytes 98304 --objective traffic")).unwrap();
        match cmd {
            Command::Schedule { capacity, .. } => {
                assert_eq!(capacity, Some(CapacityTarget::min_traffic(98_304)));
            }
            other => panic!("unexpected parse {other:?}"),
        }
        // --objective is meaningless without a capacity; zero and garbage
        // capacities are rejected.
        assert!(parse(&args("schedule g.json --objective traffic")).is_err());
        assert!(parse(&args("schedule g.json --capacity-bytes 64 --objective maximal")).is_err());
        assert!(parse(&args("schedule g.json --capacity-bytes 0")).is_err());
        assert!(parse(&args("schedule g.json --capacity-bytes lots")).is_err());
    }

    #[test]
    fn parses_traffic() {
        let cmd = parse(&args("traffic g.json --capacity-kb 256 --policy lru")).unwrap();
        assert_eq!(
            cmd,
            Command::Traffic { path: "g.json".into(), capacity_kb: 256, policy: Policy::Lru }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&args("bogus")).is_err());
        assert!(parse(&args("schedule")).is_err());
        assert!(parse(&args("schedule g.json --allocator martian")).is_err());
        assert!(parse(&args("schedule g.json --threads 0")).is_err());
        assert!(parse(&args("schedule g.json --deadline-ms lots")).is_err());
        assert!(parse(&args("schedule g.json --scheduler dp --budget-kb 64")).is_err());
        assert!(parse(&args("traffic g.json")).is_err());
    }

    #[test]
    fn parses_scheduler_selection() {
        assert_eq!(parse(&args("backends")).unwrap(), Command::Backends);
        let cmd =
            parse(&args("schedule g.json --scheduler portfolio --deadline-ms 5000 --verbose"))
                .unwrap();
        match cmd {
            Command::Schedule { scheduler, deadline_ms, verbose, .. } => {
                assert_eq!(scheduler.as_deref(), Some("portfolio"));
                assert_eq!(deadline_ms, Some(5000));
                assert!(verbose);
            }
            other => panic!("unexpected parse {other:?}"),
        }
        assert!(parse(&args("schedule g.json --portfolio-threads 2")).is_err(), "the flag is gone");
    }
}
