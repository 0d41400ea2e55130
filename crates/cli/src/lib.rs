//! The `cbes` command-line interface.
//!
//! Exposes the CBES life-cycle as subcommands over the modelled clusters:
//!
//! ```text
//! cbes cluster <preset>                          inspect a cluster model
//! cbes workloads                                 list workload generators
//! cbes calibrate <preset> [--seed N] [--out F]   off-line latency model
//! cbes profile <preset> --workload W [...]       trace + reduce a profile
//! cbes predict <preset> --profile F --mapping M  evaluate one mapping
//! cbes schedule <preset> --profile F [...]       run a scheduler
//! cbes simulate <preset> --workload W --mapping M   one measured run
//! ```
//!
//! The library half is the testable core: [`run`] takes an argument vector
//! and returns the rendered output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod error;

pub use error::CliError;

use args::Parsed;

/// Usage text.
pub const USAGE: &str = "\
usage: cbes <command> [options]

commands:
  cluster <preset>            describe a cluster model (centurion | orange-grove | demo)
  topology <preset>           emit the cluster topology as Graphviz DOT [--out FILE]
  export-cluster <preset>     dump a preset as editable ClusterSpec JSON [--out FILE]
                              (every <preset> argument also accepts a .json spec file)
  workloads                   list available workload generators
  calibrate <preset>          run the off-line calibration campaign
      [--seed N] [--out FILE]
  profile <preset>            profile a workload on a profiling mapping
      --workload NAME [--class S|A|B] [--size N] [--ranks N]
      [--nodes 0,1,..] [--seed N] [--out FILE]
  predict <preset>            predict one mapping's execution time
      --profile FILE --mapping 0,1,.. [--load NODE=AVAIL,..]
  schedule <preset>           select a mapping with a scheduler
      --profile FILE [--scheduler cs|ncs|rs|greedy|ga]
      [--pool 0,1,..] [--seed N] [--load NODE=AVAIL,..]
  simulate <preset>           one measured run of a workload on a mapping
      --workload NAME [--class S|A|B] [--size N]
      --mapping 0,1,.. [--seed N] [--load NODE=AVAIL,..]
  analyze <preset>            trace a run and print post-mortem statistics
      --workload NAME --mapping 0,1,.. [--seed N]
  serve <preset>              run the CBES daemon (blocks until shutdown)
      [--addr HOST:PORT] [--workers N] [--queue N] [--timeout-ms N]
      [--forecast last|mean|median|adaptive] [--profiles DIR]
      [--seed N] [--addr-file FILE]
      [--max-line-bytes N] [--max-bad-frames N] [--retry-after-ms N]
      [--suspect-after SWEEPS] [--down-after SWEEPS] [--max-rps N]
      [--state-dir DIR]        enable the live-reconfiguration artifact
                               store (crash-safe journal under DIR)
  request <addr> <action>     issue one request to a running daemon
      stats | metrics | shutdown | membership
      register --profile FILE
      compare  --app NAME --mappings 0,1;4,5
      best-of  --app NAME --mappings 0,1;4,5
      schedule --app NAME --pool 0,1,.. [--iters N] [--seed N]
      observe  --nodes N --load NODE=AVAIL,..
      observe-partial --nodes N --load NODE=AVAIL,.. [--silent 3,5,..]
      route    --app NAME [--cluster NAME]
      replicate --epoch N --nodes N --load NODE=AVAIL,.. [--silent 3,5,..]
      trace    --trace-id N    fetch the retained spans of trace N
      dump-flight              dump the anomaly flight recorder to disk
      stage --kind K --payload JSON | --payload-file FILE
      apply | accept | rollback [--reason R] | artifact-status
      (all request actions accept --timeout SECONDS, default 10, and
       --trace-id N to stamp the request with trace context;
       exit codes: 2 usage, 3 transport, 4 server error, 5 overload-shed)
  artifact <sub> <addr>       live-reconfiguration lifecycle; point at a
      router to drive the whole tier at once
      stage    --kind latency_model|cluster_preset|serving_limits
               --payload JSON | --payload-file FILE
      apply                    activate the staged artifact (starts a soak)
      accept                   promote the soaking artifact
      rollback [--reason R]    reinstate the previous configuration
      status                   lifecycle state, one row per instance
      list                     every version the store has ever staged
  metrics <addr>.. [--addr A]  fetch observability snapshots from one or
      more daemons and merge them into a single tier-wide report
      [--format summary|json] [--timeout SECONDS]
  top <addr>.. [--addr A]     live tier view: requests and sheds per frame,
      p50/p99 over the last 10 s / 60 s, from successive metrics snapshots
      [--iterations N] [--interval-ms N] [--timeout SECONDS]
  route serve                 run the scale-out routing tier (blocks)
      --instance HOST:PORT .. | --instances A,B,..
      [--cluster NAME] [--addr HOST:PORT] [--addr-file FILE]
      [--replicas N] [--heartbeat-ms N] [--probe-timeout-ms N]
      [--suspect-after SWEEPS] [--down-after SWEEPS]
  route status <addr>         membership report of a running router
  route where <addr>          which instance owns a routing key
      --app NAME [--cluster NAME]
";

/// Parse and execute an argument vector; returns the output text.
pub fn run<I: IntoIterator<Item = String>>(argv: I) -> Result<String, CliError> {
    let parsed = Parsed::parse(argv)?;
    match parsed.command.as_str() {
        "cluster" => commands::cluster(&parsed),
        "topology" => commands::topology(&parsed),
        "export-cluster" => commands::export_cluster(&parsed),
        "workloads" => commands::workloads(&parsed),
        "calibrate" => commands::calibrate(&parsed),
        "profile" => commands::profile(&parsed),
        "predict" => commands::predict(&parsed),
        "schedule" => commands::schedule(&parsed),
        "simulate" => commands::simulate(&parsed),
        "analyze" => commands::analyze(&parsed),
        "serve" => commands::serve(&parsed),
        "request" => commands::request(&parsed),
        "artifact" => commands::artifact(&parsed),
        "metrics" => commands::metrics(&parsed),
        "top" => commands::top(&parsed),
        "route" => commands::route(&parsed),
        "help" | "" => Ok(USAGE.to_string()),
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(args: &[&str]) -> Result<String, CliError> {
        run(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn help_prints_usage() {
        assert!(call(&["help"]).unwrap().contains("usage: cbes"));
        // The binary turns an empty argv into `help`; the library does not.
        let e = call(&[]).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e}");
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn unknown_command_is_an_error() {
        let e = call(&["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn cluster_and_workloads_roundtrip() {
        let out = call(&["cluster", "demo"]).unwrap();
        assert!(out.contains("demo"));
        assert!(out.contains("8 nodes"));
        let out = call(&["workloads"]).unwrap();
        assert!(out.contains("lu"));
        assert!(out.contains("aztec"));
    }

    #[test]
    fn full_cli_lifecycle_in_tempdir() {
        let dir = std::env::temp_dir().join(format!("cbes-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let profile_path = dir.join("p.json");
        let profile_str = profile_path.to_str().unwrap();

        // Profile a small LU on the demo cluster.
        let out = call(&[
            "profile",
            "demo",
            "--workload",
            "lu",
            "--class",
            "S",
            "--ranks",
            "4",
            "--out",
            profile_str,
        ])
        .unwrap();
        assert!(out.contains("profiled"), "{out}");
        assert!(profile_path.exists());

        // Predict an explicit mapping.
        let out = call(&[
            "predict",
            "demo",
            "--profile",
            profile_str,
            "--mapping",
            "0,1,4,5",
        ])
        .unwrap();
        assert!(out.contains("predicted"), "{out}");

        // Schedule with CS.
        let out = call(&[
            "schedule",
            "demo",
            "--profile",
            profile_str,
            "--scheduler",
            "cs",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("selected mapping"), "{out}");

        // Simulate a measured run.
        let out = call(&[
            "simulate",
            "demo",
            "--workload",
            "lu",
            "--class",
            "S",
            "--mapping",
            "0,1,2,3",
        ])
        .unwrap();
        assert!(out.contains("wall time"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_respects_load_overrides() {
        let dir = std::env::temp_dir().join(format!("cbes-cli-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("p.json");
        let ps = p.to_str().unwrap();
        call(&[
            "profile",
            "demo",
            "--workload",
            "ep",
            "--class",
            "S",
            "--ranks",
            "4",
            "--out",
            ps,
        ])
        .unwrap();
        let idle = call(&["predict", "demo", "--profile", ps, "--mapping", "0,1,2,3"]).unwrap();
        let loaded = call(&[
            "predict",
            "demo",
            "--profile",
            ps,
            "--mapping",
            "0,1,2,3",
            "--load",
            "0=0.5",
        ])
        .unwrap();
        let t = |s: &str| -> f64 {
            s.split("predicted execution time: ")
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(t(&loaded) > t(&idle), "idle: {idle} loaded: {loaded}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
