//! CLI entry point: regenerate the paper's tables and figures, or run scenario files.
//!
//! ```text
//! mess-harness --experiment fig5              # one builtin experiment at full fidelity
//! mess-harness --experiment all --quick       # smoke-run everything (parallel job runner)
//! mess-harness --experiment fig2 --out out/   # also write out/fig2.csv + summary JSON
//! mess-harness --dump-spec fig11 --quick      # export the builtin as editable JSON
//! mess-harness --scenario my-scenario.json    # run one scenario from a file
//! mess-harness --campaign my-campaign.json    # run a batch of scenarios from a file
//! mess-harness --list                         # experiment index with paper anchors
//! mess-harness --experiment fig2 --csv        # machine-readable stdout
//! mess-harness --threads 1 -e fig2            # fully sequential reference run
//! mess-harness --scenario c.json --curves-out curves/   # persist measured CurveSets
//! mess-harness --scenario m.json --curves curves/x.json # run from a saved CurveSet
//! mess-harness --list-curves curves/          # index the artifacts in a directory
//! ```
//!
//! There is one run path. A builtin id is just a spec: `-e <id>` runs
//! `mess_scenario::builtin_spec(id, fidelity)` exactly as `--scenario` runs a file, and
//! `-e all` runs a campaign of the thirteen builtin specs exactly as `--campaign` runs a
//! file. Every run goes through `run_scenario_observed` / `run_campaign_observed`.
//!
//! `--threads N` sets the process-wide `mess-exec` worker count — a true cap, because
//! nested pools run inline. For a single scenario the N workers go to its per-sweep-point /
//! per-leg parallelism; for `--experiment all` and `--campaign` they go to running up to N
//! scenarios concurrently (each internally sequential). The default is one worker per
//! available hardware thread; the output is byte-identical at every setting.
//!
//! Scenario and campaign files carry their own sizing (a `--dump-spec` export bakes the
//! chosen fidelity in), so `--quick`/`--full` only affect builtin experiment ids.
//!
//! `--curves-out DIR` writes every curve family the run characterizes as a versioned,
//! provenance-carrying `CurveSet` JSON artifact; `--curves FILE` loads such an artifact
//! and overrides every curve source in the run with it (the way to re-simulate or
//! re-profile from a saved characterization without editing the spec).
//!
//! Observability (see the "Observability" section of this crate's README):
//! `--progress` narrates every scenario/leg event on stderr, `--trace-out FILE` writes
//! the run's span timeline as NDJSON, and `--metrics` appends the process metric
//! registry (Prometheus text) to stdout after the reports. All three are reporting-only:
//! reports, artifacts and digests stay byte-identical with them on or off.

use mess_scenario::{
    builtin_spec, run_campaign_observed, run_scenario_observed, write_curve_sets, write_reports,
    CampaignSpec, CurveSet, ExperimentReport, Fidelity, ProgressEvent, ProgressSink,
    ScenarioOptions, ScenarioSpec, TraceProgress, BUILTINS,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The CLI's progress sink: per-scenario `started`/`finished` lines on stderr (or, with
/// `--progress`, every event's canonical one-line `Display`), plus the span recorder
/// feeding `--trace-out`, which is inert while tracing is off. Both halves are read-only
/// observers — wrapping a run with this sink cannot change its outputs.
struct CliSink {
    narrate: bool,
    /// Scenarios in the run, for the `finished (k/total)` count.
    total: usize,
    finished: AtomicUsize,
    trace: TraceProgress,
}

impl ProgressSink for CliSink {
    fn emit(&self, event: ProgressEvent) {
        if self.narrate {
            eprintln!("[mess-harness] {event}");
        } else {
            match &event {
                ProgressEvent::ScenarioStarted { scenario } => {
                    eprintln!("[mess-harness] {scenario} started");
                }
                ProgressEvent::ScenarioFinished { scenario, .. } => {
                    let done = self.finished.fetch_add(1, Ordering::Relaxed) + 1;
                    eprintln!("[mess-harness] {scenario} finished ({done}/{})", self.total);
                }
                ProgressEvent::LegStarted { .. } | ProgressEvent::LegFinished { .. } => {}
            }
        }
        self.trace.emit(event);
    }
}

/// What the invocation asks for.
enum Mode {
    /// Run a builtin experiment id (or `all`).
    Experiment(String),
    /// Print a builtin experiment's scenario spec as JSON.
    DumpSpec(String),
    /// Run one scenario from a JSON file.
    Scenario(PathBuf),
    /// Run a campaign of scenarios from a JSON file.
    Campaign(PathBuf),
    /// Print the experiment index.
    List,
    /// Print an index of the CurveSet artifacts in a directory.
    ListCurves(PathBuf),
}

/// What a running mode resolves to: builtin ids and files alike become specs.
enum Plan {
    Scenario(Box<ScenarioSpec>),
    Campaign(CampaignSpec),
}

/// The per-run flags shared by every running mode.
struct RunFlags {
    fidelity: Fidelity,
    csv: bool,
    out: Option<PathBuf>,
    curves_out: Option<PathBuf>,
    narrate: bool,
    options: ScenarioOptions,
}

fn usage() {
    println!(
        "usage: mess-harness --experiment|-e <id|all> [--quick|--full] [--csv] [--out DIR] \
         [--threads|-j N] [--curves FILE] [--curves-out DIR] [--progress] \
         [--trace-out FILE] [--metrics]\n\
         \x20      mess-harness --dump-spec <id> [--quick|--full]\n\
         \x20      mess-harness --scenario <file.json> [--csv] [--out DIR] [--threads|-j N] \
         [--curves FILE] [--curves-out DIR] [--progress] [--trace-out FILE] [--metrics]\n\
         \x20      mess-harness --campaign <file.json> [--csv] [--out DIR] [--threads|-j N] \
         [--curves FILE] [--curves-out DIR] [--progress] [--trace-out FILE] [--metrics]\n\
         \x20      mess-harness --list\n\
         \x20      mess-harness --list-curves <dir>"
    );
}

/// Prints a one-line summary per CurveSet artifact in `dir` (non-artifact JSON files are
/// reported, not fatal).
fn list_curves(dir: &Path) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        println!("no .json files in {}", dir.display());
        return ExitCode::SUCCESS;
    }
    for path in paths {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        match CurveSet::load(&path) {
            Ok(set) => {
                let family = set.family();
                let points: usize = family.curves().iter().map(|c| c.len()).sum();
                let p = set.provenance();
                println!(
                    "{name}: \"{}\" v{} — platform {}, model {}, {} curves / {points} points, \
                     unloaded {:.0} ns, max bw {:.1} GB/s [scenario {}; {}]",
                    set.name(),
                    set.version(),
                    p.platform,
                    p.model,
                    family.len(),
                    family.unloaded_latency().as_ns(),
                    family.max_bandwidth().as_gbs(),
                    p.scenario,
                    p.sweep,
                );
            }
            Err(e) => println!("{name}: not a loadable curve set ({e})"),
        }
    }
    ExitCode::SUCCESS
}

/// Reads and parses a JSON spec file, folding both failure kinds into one message.
fn load<T, E: std::fmt::Display>(
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse(&text).map_err(|e| e.to_string())
}

/// Resolves `mode` to a plan, runs it through the scenario engine, prints the reports and
/// writes the requested files.
fn run(mode: Mode, flags: &RunFlags) -> ExitCode {
    let plan = match mode {
        Mode::List => {
            for b in &BUILTINS {
                println!("{:<8} {} [{}]", b.id, b.description, b.anchor);
            }
            return ExitCode::SUCCESS;
        }
        Mode::ListCurves(dir) => return list_curves(&dir),
        Mode::DumpSpec(id) => {
            return match builtin_spec(&id, flags.fidelity) {
                Some(spec) => {
                    println!("{}", spec.to_json());
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("unknown experiment: {id}");
                    ExitCode::FAILURE
                }
            };
        }
        Mode::Experiment(id) if id == "all" => Plan::Campaign(CampaignSpec {
            name: "all".into(),
            scenarios: BUILTINS.iter().map(|b| b.spec(flags.fidelity)).collect(),
        }),
        Mode::Experiment(id) => match builtin_spec(&id, flags.fidelity) {
            Some(spec) => Plan::Scenario(Box::new(spec)),
            None => {
                eprintln!("unknown experiment: {id}");
                return ExitCode::FAILURE;
            }
        },
        Mode::Scenario(path) => match load(&path, ScenarioSpec::from_json) {
            Ok(spec) => Plan::Scenario(Box::new(spec)),
            Err(e) => {
                eprintln!("cannot load scenario {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        Mode::Campaign(path) => match load(&path, CampaignSpec::from_json) {
            Ok(campaign) => Plan::Campaign(campaign),
            Err(e) => {
                eprintln!("cannot load campaign {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
    };

    let (what, name, total) = match &plan {
        Plan::Scenario(spec) => ("scenario", &spec.id, 1),
        Plan::Campaign(campaign) => ("campaign", &campaign.name, campaign.scenarios.len()),
    };
    let sink = CliSink {
        narrate: flags.narrate,
        total,
        finished: AtomicUsize::new(0),
        trace: TraceProgress::new(),
    };
    let outcomes = match &plan {
        Plan::Scenario(spec) => run_scenario_observed(spec, &flags.options, &sink).map(|o| vec![o]),
        Plan::Campaign(campaign) => run_campaign_observed(campaign, &flags.options, &sink),
    };
    let outcomes = match outcomes {
        Ok(outcomes) => outcomes,
        Err(e) => {
            eprintln!("{what} {name} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reports: Vec<ExperimentReport> = outcomes.iter().map(|o| o.report.clone()).collect();
    for report in &reports {
        if flags.csv {
            print!("{}", report.to_csv());
        } else {
            println!("{report}");
        }
    }
    let sets: Vec<CurveSet> = outcomes.into_iter().flat_map(|o| o.curve_sets).collect();
    if write_out(flags, name, &reports) && write_curves(flags, &sets) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the reports under `--out` (if set); `false` on a filesystem error.
fn write_out(flags: &RunFlags, name: &str, reports: &[ExperimentReport]) -> bool {
    let Some(dir) = &flags.out else { return true };
    match write_reports(dir, name, reports) {
        Ok(written) => {
            eprintln!(
                "[mess-harness] wrote {} files to {}",
                written.len(),
                dir.display()
            );
            true
        }
        Err(e) => {
            eprintln!("cannot write to {}: {e}", dir.display());
            false
        }
    }
}

/// Writes the curve artifacts under `--curves-out` (if set); `false` on a filesystem error.
fn write_curves(flags: &RunFlags, sets: &[CurveSet]) -> bool {
    let Some(dir) = &flags.curves_out else {
        return true;
    };
    if sets.is_empty() {
        eprintln!(
            "[mess-harness] the run measured no curve families (nothing to write to {})",
            dir.display()
        );
        return true;
    }
    match write_curve_sets(dir, sets) {
        Ok(written) => {
            eprintln!(
                "[mess-harness] wrote {} curve artifact(s) to {}",
                written.len(),
                dir.display()
            );
            true
        }
        Err(e) => {
            eprintln!("cannot write curves to {}: {e}", dir.display());
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<Mode> = None;
    let mut fidelity = Fidelity::Full;
    let mut csv = false;
    let mut out: Option<PathBuf> = None;
    let mut curves_out: Option<PathBuf> = None;
    let mut curves_file: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut narrate = false;
    let mut metrics = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--experiment" | "-e" => {
                let Some(id) = iter.next() else {
                    eprintln!("--experiment expects an id (use --list)");
                    return ExitCode::FAILURE;
                };
                mode = Some(Mode::Experiment(id.clone()));
            }
            "--dump-spec" => {
                let Some(id) = iter.next() else {
                    eprintln!("--dump-spec expects an experiment id (use --list)");
                    return ExitCode::FAILURE;
                };
                mode = Some(Mode::DumpSpec(id.clone()));
            }
            "--scenario" => {
                let Some(path) = iter.next() else {
                    eprintln!("--scenario expects a JSON file path");
                    return ExitCode::FAILURE;
                };
                mode = Some(Mode::Scenario(PathBuf::from(path)));
            }
            "--campaign" => {
                let Some(path) = iter.next() else {
                    eprintln!("--campaign expects a JSON file path");
                    return ExitCode::FAILURE;
                };
                mode = Some(Mode::Campaign(PathBuf::from(path)));
            }
            "--quick" => fidelity = Fidelity::Quick,
            "--full" => fidelity = Fidelity::Full,
            "--csv" => csv = true,
            "--out" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--out expects a directory path");
                    return ExitCode::FAILURE;
                };
                out = Some(PathBuf::from(dir));
            }
            "--curves-out" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--curves-out expects a directory path");
                    return ExitCode::FAILURE;
                };
                curves_out = Some(PathBuf::from(dir));
            }
            "--curves" => {
                let Some(file) = iter.next() else {
                    eprintln!("--curves expects a CurveSet JSON file path");
                    return ExitCode::FAILURE;
                };
                curves_file = Some(PathBuf::from(file));
            }
            "--trace-out" => {
                let Some(file) = iter.next() else {
                    eprintln!("--trace-out expects a file path");
                    return ExitCode::FAILURE;
                };
                trace_out = Some(PathBuf::from(file));
            }
            "--progress" => narrate = true,
            "--metrics" => metrics = true,
            "--list-curves" => {
                let Some(dir) = iter.next() else {
                    eprintln!("--list-curves expects a directory path");
                    return ExitCode::FAILURE;
                };
                mode = Some(Mode::ListCurves(PathBuf::from(dir)));
            }
            "--threads" | "-j" => {
                let Some(n) = iter.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--threads expects a positive integer");
                    return ExitCode::FAILURE;
                };
                if n == 0 {
                    eprintln!("--threads expects a positive integer");
                    return ExitCode::FAILURE;
                }
                mess_exec::set_default_threads(n);
            }
            "--list" => mode = Some(Mode::List),
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(mode) = mode else {
        eprintln!(
            "missing --experiment <id|all>, --scenario, --campaign, --dump-spec, --list or \
             --list-curves"
        );
        return ExitCode::FAILURE;
    };

    // Observability setup. Metrics and tracing both hang off the single process-global
    // enable; the root `run` span anchors every timeline so the trace accounts for the
    // whole invocation's wall time.
    if metrics || trace_out.is_some() {
        mess_obs::set_enabled(true);
    }
    if trace_out.is_some() {
        mess_obs::trace::start();
    }
    let root_span = trace_out
        .as_ref()
        .map(|_| mess_obs::Span::start("run").entered());

    // The --curves override loads (and strictly validates) once, up front.
    let options = match &curves_file {
        Some(path) => match CurveSet::load(path) {
            Ok(set) => {
                eprintln!(
                    "[mess-harness] curves override: \"{}\" ({} curves, platform {}, model {}) \
                     from {}",
                    set.name(),
                    set.family().len(),
                    set.provenance().platform,
                    set.provenance().model,
                    path.display()
                );
                ScenarioOptions {
                    curves: Some(set),
                    ..Default::default()
                }
            }
            Err(e) => {
                eprintln!("cannot load --curves artifact: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => ScenarioOptions::default(),
    };
    let flags = RunFlags {
        fidelity,
        csv,
        out,
        curves_out,
        narrate,
        options,
    };
    let code = run(mode, &flags);

    // Close the root span before collecting, so its duration covers everything above.
    drop(root_span);
    if let Some(path) = &trace_out {
        let records = mess_obs::trace::finish();
        let written = std::fs::File::create(path)
            .and_then(|mut file| mess_obs::trace::write_ndjson(&records, &mut file));
        match written {
            Ok(()) => eprintln!(
                "[mess-harness] wrote {} trace record(s) to {}",
                records.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write trace to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if metrics {
        // The summary block goes to stdout *after* every report, so reports themselves
        // (and their files under --out) stay byte-identical with or without it.
        println!("\n== metrics ==");
        print!("{}", mess_obs::Registry::global().render_prometheus());
    }
    code
}
