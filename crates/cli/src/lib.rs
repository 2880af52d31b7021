//! Command-line front end for the `sttlock` flow.
//!
//! ```text
//! sttlock-cli gen      --profile s1196 --seed 1 -o design.bench
//! sttlock-cli optimize -i design.bench -o design_opt.bench
//! sttlock-cli lock     -i design_opt.bench --algorithm para --seed 42 \
//!                      -o hybrid.bench --bitstream design.key [--redact] [--harden]
//! sttlock-cli report   -i hybrid.bench
//! sttlock-cli program  -i foundry.bench --bitstream design.key -o part.bench
//! sttlock-cli convert  -i hybrid.bench -o hybrid.v
//! sttlock-cli equiv    -a design.bench -b part.bench
//! sttlock-cli attack   -i foundry.bench --oracle part.bench --mode sens|sat|seq
//! sttlock-cli campaign --circuits s27,s298 --seeds 1,2 --cache .campaign \
//!                      --out runs.jsonl --table all
//! sttlock-cli cluster coordinate --listen 127.0.0.1:7879 --min-workers 2 \
//!                      --journal dispatch.log --out runs.jsonl
//! sttlock-cli cluster work --join 127.0.0.1:7879
//! ```
//!
//! Netlist files are selected by extension: `.bench` (ISCAS '89) or
//! `.v`/`.verilog` (the structural subset). The library is the built-in
//! calibrated 90 nm model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstream;

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_attack::{AttackKind, AttackOutcome, FRAMES, MAX_DIPS};
use sttlock_benchgen::{profiles, Profile};
use sttlock_campaign::{render, CampaignSpec, CircuitSpec, SelectionOverrides};
use sttlock_core::harden::{harden, HardenConfig};
use sttlock_core::{verify_and_repair, Flow, RepairConfig, SelectionAlgorithm};
use sttlock_fault::{FaultInjector, FaultModel};
use sttlock_netlist::{bench_format, verilog, HybridOverlay, Netlist, NetlistError};
use sttlock_opt::optimize;
use sttlock_power::{analyze_area, analyze_power};
use sttlock_sat::equiv::{check_equivalence, EquivResult};
use sttlock_sim::activity::estimate_activity;
use sttlock_sta::analyze;
use sttlock_techlib::Library;

/// Errors surfaced to the user.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Bad command line; the message explains the expected usage.
    Usage(String),
    /// A file could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// Underlying message.
        message: String,
    },
    /// A netlist failed to parse or validate.
    Netlist(NetlistError),
    /// A bitstream file was malformed.
    Bitstream {
        /// 1-based line.
        line: usize,
        /// Problem description.
        message: String,
    },
    /// A flow, attack or analysis step failed.
    Step(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io { path, message } => write!(f, "io error on `{path}`: {message}"),
            CliError::Netlist(e) => write!(f, "netlist error: {e}"),
            CliError::Bitstream { line, message } => {
                write!(f, "bitstream error on line {line}: {message}")
            }
            CliError::Step(m) => write!(f, "{m}"),
        }
    }
}

impl Error for CliError {}

impl From<NetlistError> for CliError {
    fn from(e: NetlistError) -> Self {
        CliError::Netlist(e)
    }
}

/// Minimal flag parser: `--flag value`, `-x value`, plus switches.
/// Each command names the flags it takes (space-separated `values`
/// that take a value, `switches` that do not), so a misspelled flag is
/// a usage error instead of being silently ignored.
struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(args: &[String], values: &str, switches: &str) -> Result<Args, CliError> {
        let names = |list: &str, key: &str| list.split_whitespace().any(|name| name == key);
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with('-') {
                return Err(CliError::Usage(format!("unexpected token `{flag}`")));
            }
            let key = flag.trim_start_matches('-').to_owned();
            let value = if names(switches, &key) {
                None
            } else if names(values, &key) {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("`{flag}` needs a value")))?;
                Some(value.clone())
            } else {
                return Err(CliError::Usage(format!("unknown flag `{flag}`")));
            };
            pairs.push((key, value));
        }
        Ok(Args { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag `--{key}`")))
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("`--{key}` expects an integer, got `{v}`"))),
        }
    }

    /// A probability flag, 0 when absent; see [`parse_probability`].
    fn get_probability(&self, key: &str) -> Result<f64, CliError> {
        self.get(key).map_or(Ok(0.0), |v| parse_probability(key, v))
    }
}

/// Parses the value `v` of the probability flag `--{key}`: a number in
/// [0, 1]. NaN, infinities and anything outside the range are usage
/// errors that name the flag.
fn parse_probability(key: &str, v: &str) -> Result<f64, CliError> {
    v.parse::<f64>()
        .ok()
        .filter(|p| (0.0..=1.0).contains(p))
        .ok_or_else(|| {
            CliError::Usage(format!(
                "`--{key}` expects a probability in [0, 1], got `{v}`"
            ))
        })
}

/// Loads a netlist, choosing the parser by file extension.
///
/// # Errors
///
/// I/O failures, unknown extensions and parse errors.
pub fn load_netlist(path: &str) -> Result<Netlist, CliError> {
    let text = fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_owned(),
        message: e.to_string(),
    })?;
    let p = Path::new(path);
    let stem = p
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design")
        .to_owned();
    match p.extension().and_then(|e| e.to_str()) {
        Some("bench") => Ok(bench_format::parse(&text, &stem)?),
        Some("v") | Some("verilog") => Ok(verilog::parse(&text)?),
        other => Err(CliError::Usage(format!(
            "unknown netlist extension `{}` (use .bench or .v)",
            other.unwrap_or("")
        ))),
    }
}

/// Saves a netlist, choosing the writer by file extension.
///
/// # Errors
///
/// I/O failures and unknown extensions.
pub fn save_netlist(path: &str, netlist: &Netlist) -> Result<(), CliError> {
    let text = match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("bench") => bench_format::write(netlist),
        Some("v") | Some("verilog") => verilog::write(netlist),
        other => {
            return Err(CliError::Usage(format!(
                "unknown netlist extension `{}` (use .bench or .v)",
                other.unwrap_or("")
            )))
        }
    };
    write_artifact(path, text)
}

/// Writes a user-visible artifact atomically (sibling temp file +
/// fsync + rename via the store): a Ctrl-C or crash mid-write leaves
/// the previous file intact, never a truncated one.
fn write_artifact(path: &str, bytes: impl AsRef<[u8]>) -> Result<(), CliError> {
    sttlock_store::write_atomic(path, bytes).map_err(|e| CliError::Io {
        path: path.to_owned(),
        message: e.to_string(),
    })
}

const HELP: &str = "\
sttlock-cli — hybrid STT-CMOS design-for-assurance flow

commands:
  gen      --profile <name>|--gates N --dffs N --inputs N --outputs N
           [--seed N] -o <file>            generate a benchmark circuit
  optimize -i <file> -o <file>             constant folding/strash/sweep
  lock     -i <file> --algorithm indep|dep|para [--seed N] [--harden]
           [--redact] [--library <file>] -o <file> [--bitstream <file>]
                                           run the selection flow
  program  -i <file> --bitstream <file> -o <file>
                                           program a redacted netlist
  report   -i <file> [--library <file>]    stats, timing, power, security
  library  -o <file>                       export the built-in library
  convert  -i <file> -o <file>             .bench <-> .v
  equiv    -a <file> -b <file>             SAT equivalence check
  attack   -i <redacted> --oracle <file> --mode sens|sat|seq [--frames N]
                                           run an attack
  faults   -i <programmed.bench>|--profile <name> [--algorithm indep|dep|para]
           [--seed N] [--write-p P] [--retention-p P] [--stuck0-p P]
           [--stuck1-p P] [--cmos-p P] [--retries N] [--batches N]
           [--backoff-ms N] [--max-backoff-ms N] [--no-sat-proof]
           [--trace <file.jsonl>] [--trace-summary]
                                           inject STT faults, then verify
                                           and repair the programmed part
  campaign [--circuits all|<n1,n2,..>] [--max-gates N]
           [--algorithms indep,dep,para] [--seeds N,N,..]
           [--attacks none,sens,sat,seq] [--frames N] [--max-dips N]
           [--indep-gates N,N,..] [--paths N,N,..] [--fault-p P,P,..]
           [--jobs N] [--timeout-secs N] [--cache <dir>] [--out <file.jsonl>]
           [--journal <file>] [--resume]
           [--table table1|table2|fig3|attacks|faults|all|none]
           [--inject-panic] [--inject-timeout]
           [--trace <file.jsonl>] [--trace-summary]
                                           run a parallel experiment grid
  cluster coordinate [--listen HOST:PORT] [--min-workers N]
           [--heartbeat-timeout-ms N] [--dispatch-margin-secs N]
           [--run-timeout-secs N]
           + the campaign flags but --jobs, --cache and
           --trace-summary (cells run uncached on the workers)
                                         shard a campaign across the
                                         heartbeating workers and merge
                                         the records in grid order;
                                         --journal is a campaign journal
                                         (`campaign --resume` resumes
                                         it, and `--resume` here resumes
                                         one `campaign` wrote); also
                                         fans POST /v1/harden out to
                                         the least-loaded worker
  cluster work --join HOST:PORT [--listen HOST:PORT]
           [--advertise HOST:PORT] [--id NAME] [--cache-dir <dir>]
           [--heartbeat-ms N] [--request-timeout-ms N]
                                         join a coordinator and execute
                                         the cells it dispatches
  serve    [--addr HOST:PORT] [--workers N] [--queue-depth N]
           [--request-timeout-ms N] [--cache-dir <dir>]
           [--max-body-bytes N] [--debug-endpoints]
           [--trace <file.jsonl>]
                                           run the HTTP harden/attack
                                           service (POST /v1/harden,
                                           POST /v1/attack, GET /healthz,
                                           GET /metrics; stop with
                                           POST /admin/shutdown, a
                                           `quit` line on stdin, or
                                           Ctrl-D at a terminal)
  help                                     this text

netlist files: .bench (ISCAS'89) or .v (structural subset)
library files: the sttlock text format (see `library` to export a template)
";

/// Loads the technology library requested by `--library`, or the
/// built-in calibrated 90 nm model.
fn load_library(args: &Args) -> Result<Library, CliError> {
    match args.get("library") {
        None => Ok(Library::predictive_90nm()),
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| CliError::Io {
                path: path.to_owned(),
                message: e.to_string(),
            })?;
            sttlock_techlib::textfmt::parse_library(&text)
                .map_err(|e| CliError::Step(format!("bad library `{path}`: {e}")))
        }
    }
}

/// Entry point shared by the binary and the tests: executes one command
/// and returns the text to print.
///
/// # Errors
///
/// Every user-visible failure is a [`CliError`].
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some(command) = argv.first() else {
        return Ok(HELP.to_owned());
    };
    let rest = &argv[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(HELP.to_owned()),
        "gen" => cmd_gen(rest),
        "library" => cmd_library(rest),
        "optimize" => cmd_optimize(rest),
        "lock" => cmd_lock(rest),
        "program" => cmd_program(rest),
        "report" => cmd_report(rest),
        "convert" => cmd_convert(rest),
        "equiv" => cmd_equiv(rest),
        "attack" => cmd_attack(rest),
        "faults" => cmd_faults(rest),
        "campaign" => cmd_campaign(rest),
        "cluster" => cmd_cluster(rest),
        "serve" => cmd_serve(rest),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}` (try `sttlock-cli help`)"
        ))),
    }
}

fn cmd_gen(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, "profile gates dffs inputs outputs seed o", "")?;
    let seed = args.get_u64("seed", 42)?;
    let profile = if let Some(name) = args.get("profile") {
        profiles::by_name(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown profile `{name}`; known: {}",
                profiles::ALL.map(|p| p.name).join(", ")
            ))
        })?
    } else {
        let gates = args.get_u64("gates", 0)? as usize;
        if gates == 0 {
            return Err(CliError::Usage(
                "gen needs `--profile <name>` or `--gates N [--dffs N --inputs N --outputs N]`"
                    .into(),
            ));
        }
        let profile = Profile {
            name: "custom",
            gates,
            dffs: args.get_u64("dffs", 8)? as usize,
            inputs: args.get_u64("inputs", 8)? as usize,
            outputs: args.get_u64("outputs", 8)? as usize,
        };
        profile.check().map_err(|e| {
            CliError::Usage(format!(
                "the circuit of `--gates {} --dffs {} --inputs {} --outputs {}` {e}",
                profile.gates, profile.dffs, profile.inputs, profile.outputs
            ))
        })?;
        profile
    };
    let out = args.require("o")?;
    let netlist = profile.generate(&mut StdRng::seed_from_u64(seed));
    save_netlist(out, &netlist)?;
    Ok(format!("wrote {netlist} to {out}\n"))
}

fn cmd_optimize(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, "i o", "")?;
    let input = args.require("i")?;
    let output = args.require("o")?;
    let netlist = load_netlist(input)?;
    let (optimized, report) = optimize(&netlist)?;
    save_netlist(output, &optimized)?;
    Ok(format!(
        "optimized {input}: {} -> {} gates (folded {}, shared {}, collapsed {}, swept {})\n",
        netlist.gate_count(),
        optimized.gate_count(),
        report.folded,
        report.shared,
        report.collapsed,
        report.swept
    ))
}

fn parse_algorithm(s: &str) -> Result<SelectionAlgorithm, CliError> {
    s.parse().map_err(CliError::Usage)
}

fn cmd_lock(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(
        argv,
        "i o algorithm seed library bitstream",
        "redact harden",
    )?;
    let input = args.require("i")?;
    let output = args.require("o")?;
    let algorithm = parse_algorithm(args.require("algorithm")?)?;
    let seed = args.get_u64("seed", 42)?;

    let netlist = load_netlist(input)?;
    let flow = Flow::new(load_library(&args)?);
    let mut outcome = flow
        .run(&netlist, algorithm, seed)
        .map_err(|e| CliError::Step(format!("flow failed: {e}")))?;

    let mut harden_note = String::new();
    if args.has("harden") {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4A4D);
        let hr = harden(&mut outcome.hybrid, &HardenConfig::default(), &mut rng)
            .map_err(|e| CliError::Step(format!("hardening failed: {e}")))?;
        harden_note = format!(
            ", hardened (+{} decoys, {} absorbed)",
            hr.decoys_added, hr.gates_absorbed
        );
    }
    // Hardening may rewrite configs; re-derive the secret from the final
    // hybrid so the key file always matches the written netlist.
    let (foundry, secret) = outcome.hybrid.redact();

    if let Some(bits_path) = args.get("bitstream") {
        write_artifact(bits_path, bitstream::write(&outcome.hybrid, &secret))?;
    }
    let written = if args.has("redact") {
        &foundry
    } else {
        &outcome.hybrid
    };
    save_netlist(output, written)?;

    Ok(format!(
        "locked {input} with {algorithm}: {} LUTs{harden_note}\n{}\nwrote {} view to {output}\n",
        secret.len(),
        outcome.report,
        if args.has("redact") {
            "foundry (redacted)"
        } else {
            "programmed"
        },
    ))
}

fn cmd_program(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, "i o bitstream", "")?;
    let input = args.require("i")?;
    let output = args.require("o")?;
    let bits_path = args.require("bitstream")?;
    let mut netlist = load_netlist(input)?;
    let text = fs::read_to_string(bits_path).map_err(|e| CliError::Io {
        path: bits_path.to_owned(),
        message: e.to_string(),
    })?;
    let bits = bitstream::parse(&netlist, &text)?;
    netlist.program(&bits);
    save_netlist(output, &netlist)?;
    Ok(format!("programmed {} LUTs into {output}\n", bits.len()))
}

fn cmd_report(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, "i library", "")?;
    let input = args.require("i")?;
    let netlist = load_netlist(input)?;
    let lib = load_library(&args)?;
    let stats = netlist.stats();
    let timing = analyze(&netlist, &lib);
    let area = analyze_area(&netlist, &lib);

    let mut out = String::new();
    out.push_str(&format!("design    : {netlist}\n"));
    out.push_str(&format!(
        "interface : {} inputs, {} outputs, {} flip-flops\n",
        stats.inputs, stats.outputs, stats.dffs
    ));
    out.push_str(&format!(
        "timing    : min clock period {:.3} ns ({:.1} MHz)\n",
        timing.clock_period_ns(),
        1000.0 / timing.clock_period_ns().max(1e-9)
    ));
    out.push_str(&format!("area      : {area:.1} um^2\n"));

    // Power needs a programmed design; redacted netlists get the static
    // estimate instead (probabilities treat missing gates as balanced).
    if netlist.first_unprogrammed_lut().is_some() {
        let prob = sttlock_sim::probability::signal_probabilities(&netlist);
        let p = sttlock_power::analyze_power_static(&netlist, &lib, &prob);
        out.push_str(&format!(
            "power     : {:.1} uW total (static estimate; redacted netlist)\n",
            p.total_uw()
        ));
    } else {
        let mut rng = StdRng::seed_from_u64(7);
        let act = estimate_activity(&netlist, 256, &mut rng)
            .map_err(|e| CliError::Step(format!("simulation failed: {e}")))?;
        let p = analyze_power(&netlist, &lib, &act);
        out.push_str(&format!("power     : {:.1} uW total\n", p.total_uw()));
    }

    if netlist.lut_count() > 0 {
        let est = sttlock_attack::estimate::security_estimate(&netlist);
        out.push_str(&format!(
            "security  : {} LUTs | N_indep {} | N_dep {} | N_bf {} ({:.1e} years at 1e9/s)\n",
            netlist.lut_count(),
            est.n_indep,
            est.n_dep,
            est.n_bf,
            est.n_bf.years_at(1e9)
        ));
    }
    Ok(out)
}

fn cmd_library(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, "o", "")?;
    let out = args.require("o")?;
    let text = sttlock_techlib::textfmt::write_library(&Library::predictive_90nm());
    write_artifact(out, text)?;
    Ok(format!(
        "exported the built-in calibrated 90nm library to {out}\n"
    ))
}

fn cmd_convert(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, "i o", "")?;
    let input = args.require("i")?;
    let output = args.require("o")?;
    let netlist = load_netlist(input)?;
    save_netlist(output, &netlist)?;
    Ok(format!("converted {input} -> {output}\n"))
}

fn cmd_equiv(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, "a b", "")?;
    let a = load_netlist(args.require("a")?)?;
    let b = load_netlist(args.require("b")?)?;
    match check_equivalence(&a, &b).map_err(|e| CliError::Step(e.to_string()))? {
        EquivResult::Equivalent => Ok("EQUIVALENT (proven for all frames)\n".to_owned()),
        EquivResult::Different { inputs, state } => Ok(format!(
            "DIFFERENT — witness frame: inputs {:?}, state {:?}\n",
            inputs, state
        )),
    }
}

fn cmd_attack(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, "i oracle mode seed frames", "")?;
    let redacted = load_netlist(args.require("i")?)?;
    let oracle = load_netlist(args.require("oracle")?)?;
    let frames = args.get_u64("frames", FRAMES as u64)? as usize;
    let kind =
        AttackKind::parse(args.require("mode")?, frames, MAX_DIPS).map_err(CliError::Usage)?;
    let seed = args.get_u64("seed", 42)?;
    let budget = sttlock_exec::Budget::unbounded();
    let outcome = sttlock_attack::run(kind, &redacted, &oracle, seed, &budget)
        .map_err(|e| CliError::Step(format!("attack failed: {e}")))?;
    match outcome {
        None => Err(CliError::Usage(
            "attack mode `none` runs no attack (sens|sat|seq)".into(),
        )),
        Some(AttackOutcome::Sensitization(out)) => Ok(format!(
            "sensitization: {} ({}% of rows), {} test clocks, {} SAT queries\n",
            if out.is_full_break() {
                "FULL BREAK"
            } else {
                "stalled"
            },
            (out.resolution_ratio() * 100.0).round(),
            out.test_clocks,
            out.sat_queries
        )),
        Some(AttackOutcome::Sat(out)) if out.frames == 0 => Ok(format!(
            "sat attack (full scan): {}, {} DIPs, {} conflicts\n",
            if out.succeeded() {
                "KEY RECOVERED"
            } else {
                "dip limit hit"
            },
            out.dips,
            out.solver_stats.conflicts
        )),
        Some(AttackOutcome::Sat(out)) => Ok(format!(
            "sat attack (no scan, {} frames): {}, {} DIP sequences, {} conflicts\n",
            out.frames,
            if out.succeeded() {
                "KEY RECOVERED (bounded)"
            } else {
                "dip limit hit"
            },
            out.dips,
            out.solver_stats.conflicts
        )),
    }
}

/// Wires `--trace <file.jsonl>` / `--trace-summary` into a subcommand:
/// installs a recording collector before the work runs and, on
/// [`Trace::finish`], writes the JSONL export and/or appends the text
/// summary to the command output. Dropping the guard (on any early
/// error return) restores the zero-cost no-op collector.
struct Trace {
    collector: std::sync::Arc<sttlock_obs::TraceCollector>,
    path: Option<String>,
    summary: bool,
}

impl Trace {
    fn start(args: &Args) -> Option<Trace> {
        let path = args.get("trace").map(str::to_owned);
        let summary = args.has("trace-summary");
        if path.is_none() && !summary {
            return None;
        }
        let collector = sttlock_obs::TraceCollector::new();
        sttlock_obs::install(collector.clone());
        Some(Trace {
            collector,
            path,
            summary,
        })
    }

    fn finish(self, out: &mut String) -> Result<(), CliError> {
        sttlock_obs::uninstall();
        if let Some(path) = &self.path {
            // Atomic: a kill between here and process exit must never
            // leave a half-written trace for tooling to choke on.
            write_artifact(path, self.collector.to_jsonl())?;
        }
        if self.summary {
            out.push('\n');
            out.push_str(&self.collector.summary());
        }
        Ok(())
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        // Idempotent with the `finish` call; covers early `?` returns
        // so a failed command never leaks an installed collector.
        sttlock_obs::uninstall();
    }
}

fn cmd_faults(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(
        argv,
        "i profile algorithm seed library write-p retention-p stuck0-p stuck1-p cmos-p \
         retries batches backoff-ms max-backoff-ms trace",
        "no-sat-proof trace-summary",
    )?;
    let trace = Trace::start(&args);
    let seed = args.get_u64("seed", 42)?;
    let model = FaultModel {
        write_failure_p: args.get_probability("write-p")?,
        retention_flip_p: args.get_probability("retention-p")?,
        stuck_at_zero_p: args.get_probability("stuck0-p")?,
        stuck_at_one_p: args.get_probability("stuck1-p")?,
        cmos_stuck_p: args.get_probability("cmos-p")?,
    };
    let cfg = RepairConfig {
        random_batches: args.get_u64("batches", 8)? as usize,
        max_retries: args.get_u64("retries", 5)? as usize,
        backoff: sttlock_exec::Backoff::new(
            std::time::Duration::from_millis(args.get_u64("backoff-ms", 0)?),
            std::time::Duration::from_millis(args.get_u64("max-backoff-ms", 60_000)?),
        ),
        sat_proof: !args.has("no-sat-proof"),
    };

    // The golden model, the fabricated device, and its intended
    // bitstream — either from a programmed netlist on disk or from a
    // fresh gen + lock of a named profile.
    let (golden, mut device, bitstream, label) = if let Some(input) = args.get("i") {
        let netlist = load_netlist(input)?;
        if netlist.lut_count() == 0 {
            return Err(CliError::Step(format!(
                "`{input}` has no LUTs — lock the design first (see `lock`)"
            )));
        }
        if netlist.first_unprogrammed_lut().is_some() {
            return Err(CliError::Step(format!(
                "`{input}` is a redacted foundry view — program it first (see `program`)"
            )));
        }
        let device = HybridOverlay::new(std::sync::Arc::new(netlist.clone()));
        let bitstream = device.bitstream();
        (netlist, device, bitstream, input.to_owned())
    } else if let Some(name) = args.get("profile") {
        let profile = profiles::by_name(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown profile `{name}`; known: {}",
                profiles::ALL.map(|p| p.name).join(", ")
            ))
        })?;
        let algorithm = parse_algorithm(args.get("algorithm").unwrap_or("para"))?;
        let netlist = profile.generate(&mut StdRng::seed_from_u64(seed));
        let flow = Flow::new(load_library(&args)?);
        let outcome = flow
            .run(&netlist, algorithm, seed)
            .map_err(|e| CliError::Step(format!("flow failed: {e}")))?;
        let label = format!("{name} ({algorithm}, seed {seed})");
        (netlist, outcome.overlay, outcome.bitstream, label)
    } else {
        return Err(CliError::Usage(
            "faults needs `-i <programmed netlist>` or `--profile <name>`".into(),
        ));
    };

    let mut injector = FaultInjector::new(model, seed ^ 0xFA17_5EED);
    let injected = injector.corrupt(&mut device);
    let mut out = format!(
        "injected {} fault(s) into {label} (model {model}):\n",
        injected.len()
    );
    for f in &injected {
        out.push_str(&format!("  {f}\n"));
    }
    if injected.is_empty() {
        out.push_str("  (none — the device came out of fabrication clean)\n");
    }

    let report = verify_and_repair(
        &golden,
        &mut device,
        &bitstream,
        &mut injector,
        &cfg,
        seed,
        &sttlock_exec::Budget::unbounded(),
    )
    .map_err(|e| CliError::Step(format!("verify/repair failed: {e}")))?;
    out.push_str(&format!(
        "verify+repair: {} after {} retry round(s)\n",
        report.verdict, report.retries
    ));
    out.push_str(&format!(
        "  {} test vectors, {} LUT re-writes, mismatching points {} -> {}\n",
        report.vectors_run,
        report.reprogram_attempts,
        report.initial_mismatches,
        report.residual_mismatches
    ));
    if !report.repaired_luts.is_empty() {
        out.push_str(&format!(
            "  repaired LUTs: {}\n",
            report.repaired_luts.join(", ")
        ));
    }
    if !report.failed_luts.is_empty() {
        out.push_str(&format!(
            "  failed LUTs  : {}\n",
            report.failed_luts.join(", ")
        ));
    }

    let p = model.row_fault_p();
    if p > 0.0 {
        // Estimate on the hybrid (the netlist that carries the LUTs) —
        // in the `--profile` branch `golden` is the pure-CMOS original.
        let hybrid = device.materialize();
        let baseline = sttlock_attack::estimate::security_estimate(&hybrid);
        let faulted = sttlock_attack::estimate::security_under_faults(&hybrid, p);
        out.push_str(&format!(
            "security under faults (row p = {p:.4}): N_bf {} (fault-free {})\n",
            faulted.n_bf, baseline.n_bf
        ));
    }
    if let Some(trace) = trace {
        trace.finish(&mut out)?;
    }
    Ok(out)
}

fn parse_list<T>(
    text: &str,
    what: &str,
    parse: impl Fn(&str) -> Result<T, CliError>,
) -> Result<Vec<T>, CliError> {
    let items: Result<Vec<T>, CliError> = text
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s.trim()))
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(CliError::Usage(format!(
            "`--{what}` needs at least one item"
        )));
    }
    Ok(items)
}

/// Parses one `--circuits` item: a profile name (`s27`), or a custom
/// spec `name:gates:dffs:inputs:outputs` for ad-hoc smoke grids.
fn parse_circuit(item: &str) -> Result<CircuitSpec, CliError> {
    if !item.contains(':') {
        return if profiles::by_name(item).is_some() {
            Ok(CircuitSpec::Profile(item.to_owned()))
        } else {
            Err(CliError::Usage(format!(
                "unknown profile `{item}`; known: {} (or name:gates:dffs:inputs:outputs)",
                profiles::ALL.map(|p| p.name).join(", ")
            )))
        };
    }
    let parts: Vec<&str> = item.split(':').collect();
    let bad = || {
        CliError::Usage(format!(
            "bad custom circuit `{item}` (want name:gates:dffs:inputs:outputs)"
        ))
    };
    if parts.len() != 5 || parts[0].is_empty() {
        return Err(bad());
    }
    let num = |s: &str| s.parse::<usize>().map_err(|_| bad());
    let profile = Profile {
        name: "custom",
        gates: num(parts[1])?,
        dffs: num(parts[2])?,
        inputs: num(parts[3])?,
        outputs: num(parts[4])?,
    };
    profile
        .check()
        .map_err(|e| CliError::Usage(format!("`--circuits` item `{item}` {e}")))?;
    Ok(CircuitSpec::Custom {
        name: parts[0].to_owned(),
        gates: profile.gates,
        dffs: profile.dffs,
        inputs: profile.inputs,
        outputs: profile.outputs,
    })
}

/// The flags `campaign` and `cluster coordinate` share: the ones
/// [`parse_campaign_spec`] and [`parse_table`] read, plus `--out` and
/// `--trace`. `--jobs` and `--cache` are `campaign`'s alone: cluster
/// cells run uncached on the workers.
const GRID_FLAGS: &str = "circuits max-gates algorithms seeds attacks frames max-dips \
    indep-gates paths fault-p timeout-secs journal table out trace";

/// The switches [`parse_campaign_spec`] reads.
const GRID_SWITCHES: &str = "inject-panic inject-timeout resume";

/// Parses the campaign grid flags shared by `campaign` and
/// `cluster coordinate` — circuits, algorithms, seeds, attacks, the
/// override/fault axes and the execution knobs — into a spec.
fn parse_campaign_spec(args: &Args) -> Result<CampaignSpec, CliError> {
    let max_gates = args.get_u64("max-gates", u64::MAX)? as usize;

    let mut circuits = match args.get("circuits") {
        None | Some("all") => profiles::up_to(max_gates)
            .iter()
            .map(|p| CircuitSpec::Profile(p.name.to_owned()))
            .collect(),
        Some(list) => parse_list(list, "circuits", parse_circuit)?,
    };
    if args.has("inject-panic") {
        circuits.push(CircuitSpec::InjectPanic);
    }
    if args.has("inject-timeout") {
        circuits.push(CircuitSpec::InjectTimeout);
    }
    // A cell's journal key carries the circuit's name: two circuits of
    // one name would share journal entries.
    let mut names = std::collections::HashSet::new();
    if let Some(twice) = circuits
        .iter()
        .map(CircuitSpec::name)
        .find(|n| !names.insert(*n))
    {
        return Err(CliError::Usage(format!(
            "`--circuits` names `{twice}` twice; circuit names must be unique"
        )));
    }

    let algorithms = match args.get("algorithms") {
        None => SelectionAlgorithm::ALL.to_vec(),
        Some(list) => parse_list(list, "algorithms", parse_algorithm)?,
    };
    let seeds = match args.get("seeds") {
        None => vec![42],
        Some(list) => parse_list(list, "seeds", |s| {
            s.parse::<u64>()
                .map_err(|_| CliError::Usage(format!("`--seeds` expects integers, got `{s}`")))
        })?,
    };
    let frames = args.get_u64("frames", FRAMES as u64)? as usize;
    let max_dips = args.get_u64("max-dips", MAX_DIPS as u64)? as usize;
    let attacks = match args.get("attacks") {
        None => vec![AttackKind::None],
        Some(list) => parse_list(list, "attacks", |s| {
            AttackKind::parse(s, frames, max_dips).map_err(CliError::Usage)
        })?,
    };

    // The selection-override axis: `--indep-gates` / `--paths` lists
    // are crossed into the grid (ablation sweeps from the CLI).
    let parse_usizes = |key: &'static str| -> Result<Option<Vec<usize>>, CliError> {
        args.get(key)
            .map(|list| {
                parse_list(list, key, |s| {
                    s.parse::<usize>().map_err(|_| {
                        CliError::Usage(format!("`--{key}` expects integers, got `{s}`"))
                    })
                })
            })
            .transpose()
    };
    let indep_gates = parse_usizes("indep-gates")?;
    let paths = parse_usizes("paths")?;
    let mut overrides = Vec::new();
    for &g in indep_gates.as_deref().unwrap_or(&[]) {
        match paths.as_deref() {
            None | Some([]) => overrides.push(SelectionOverrides {
                independent_gates: Some(g),
                ..SelectionOverrides::default()
            }),
            Some(ps) => {
                for &p in ps {
                    overrides.push(SelectionOverrides {
                        independent_gates: Some(g),
                        parametric_paths: Some(p),
                    });
                }
            }
        }
    }
    if indep_gates.is_none() {
        for &p in paths.as_deref().unwrap_or(&[]) {
            overrides.push(SelectionOverrides {
                parametric_paths: Some(p),
                ..SelectionOverrides::default()
            });
        }
    }
    if overrides.is_empty() {
        overrides.push(SelectionOverrides::default());
    }

    // The robustness axis: `--fault-p` write-failure probabilities are
    // crossed into the grid; each fault cell corrupts the programmed
    // part and runs the verify-and-repair loop.
    let faults = match args.get("fault-p") {
        None => vec![FaultModel::default()],
        Some(list) => parse_list(list, "fault-p", |s| {
            parse_probability("fault-p", s).map(FaultModel::write_failures)
        })?,
    };

    if args.has("resume") && args.get("journal").is_none() {
        return Err(CliError::Usage(
            "`--resume` needs `--journal <file>` to replay from".into(),
        ));
    }
    // `--jobs 0` is never what the user meant: the spec treats 0 as
    // "auto", but asking for zero workers explicitly deserves a clear
    // rejection, not a silent reinterpretation.
    let jobs = args.get_u64("jobs", 0)? as usize;
    if args.get("jobs").is_some() && jobs == 0 {
        return Err(CliError::Usage(
            "`--jobs` expects at least 1 worker thread (omit the flag for auto)".into(),
        ));
    }

    Ok(CampaignSpec {
        circuits,
        algorithms,
        seeds,
        attacks,
        overrides,
        faults,
        timeout: std::time::Duration::from_secs(args.get_u64("timeout-secs", 600)?),
        jobs,
        cache_dir: args.get("cache").map(std::path::PathBuf::from),
        journal: args.get("journal").map(std::path::PathBuf::from),
        resume: args.has("resume"),
    })
}

/// Validates `--table`, returning the requested rendering.
fn parse_table(args: &Args) -> Result<&str, CliError> {
    let table = args.get("table").unwrap_or("all");
    if ![
        "none", "table1", "table2", "fig3", "attacks", "faults", "all",
    ]
    .contains(&table)
    {
        return Err(CliError::Usage(format!(
            "unknown table `{table}` (table1|table2|fig3|attacks|faults|all|none)"
        )));
    }
    Ok(table)
}

fn cmd_campaign(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(
        argv,
        &format!("{GRID_FLAGS} jobs cache"),
        &format!("{GRID_SWITCHES} trace-summary"),
    )?;
    let spec = parse_campaign_spec(&args)?;
    let table = parse_table(&args)?;

    let trace = Trace::start(&args);
    let result = sttlock_campaign::execute(&spec);
    if let Some(path) = args.get("out") {
        write_artifact(path, result.to_jsonl())?;
    }
    let mut out = campaign_report(table, &spec, &result);
    if let Some(trace) = trace {
        trace.finish(&mut out)?;
    }
    Ok(out)
}

/// Renders the requested tables plus the run summary — shared by the
/// single-node `campaign` command and `cluster coordinate`.
fn campaign_report(
    table: &str,
    spec: &CampaignSpec,
    result: &sttlock_campaign::CampaignResult,
) -> String {
    let seed = spec.seeds[0];
    let has_attacks = spec.attacks.iter().any(|a| *a != AttackKind::None)
        || spec.circuits.iter().any(CircuitSpec::is_injected);
    let has_faults = spec.faults.iter().any(|f| !f.is_noop());
    let mut out = String::new();
    match table {
        "none" => {}
        "table1" => out.push_str(&render::render_table1(&result.records, seed)),
        "table2" => out.push_str(&render::render_table2(&result.records, seed)),
        "fig3" => out.push_str(&render::render_fig3(&result.records, seed)),
        "attacks" => out.push_str(&render::render_attacks(&result.records)),
        "faults" => out.push_str(&render::render_faults(&result.records)),
        _ => {
            out.push_str(&render::render_table1(&result.records, seed));
            out.push('\n');
            out.push_str(&render::render_table2(&result.records, seed));
            out.push('\n');
            out.push_str(&render::render_fig3(&result.records, seed));
            if has_attacks {
                out.push('\n');
                out.push_str(&render::render_attacks(&result.records));
            }
            if has_faults {
                out.push('\n');
                out.push_str(&render::render_faults(&result.records));
            }
        }
    }

    let total = result.records.len();
    let ok = result.ok_count();
    let timed_out = result
        .records
        .iter()
        .filter(|r| matches!(r.status, sttlock_campaign::RunStatus::TimedOut))
        .count();
    let failed = total - ok - timed_out;
    if let Some(recovery) = &result.journal_recovery {
        if !recovery.is_clean() {
            // Surface what the store healed: a crashed predecessor's
            // torn tail shows up here instead of vanishing silently.
            out.push_str(&format!("\njournal recovery: {}\n", recovery.summary()));
        }
    }
    out.push_str(&format!(
        "\ncampaign: {total} runs ({ok} ok, {failed} failed, {timed_out} timed out, {} cached) in {:.1}s\n",
        result.cache_hits(),
        result.wall.as_secs_f64(),
    ));
    out
}

fn cmd_cluster(argv: &[String]) -> Result<String, CliError> {
    match argv.first().map(String::as_str) {
        Some("coordinate") => cmd_cluster_coordinate(&argv[1..]),
        Some("work") => cmd_cluster_work(&argv[1..]),
        Some(other) => Err(CliError::Usage(format!(
            "unknown cluster subcommand `{other}` (coordinate|work)"
        ))),
        None => Err(CliError::Usage(
            "cluster needs a subcommand: coordinate|work".into(),
        )),
    }
}

fn cmd_cluster_coordinate(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(
        argv,
        &format!(
            "{GRID_FLAGS} listen min-workers heartbeat-timeout-ms dispatch-margin-secs \
             run-timeout-secs"
        ),
        GRID_SWITCHES,
    )?;
    let spec = parse_campaign_spec(&args)?;
    let table = parse_table(&args)?;

    // Cells execute on the workers, uncached; the coordinator appends
    // every record it merges to the campaign journal.
    let cfg = sttlock_cluster::CoordinatorConfig {
        listen: args.get("listen").unwrap_or("127.0.0.1:7879").to_owned(),
        min_workers: args.get_u64("min-workers", 1)?.max(1) as usize,
        heartbeat_timeout: std::time::Duration::from_millis(
            args.get_u64("heartbeat-timeout-ms", 5_000)?,
        ),
        dispatch_margin: std::time::Duration::from_secs(args.get_u64("dispatch-margin-secs", 30)?),
        journal: spec.journal.clone(),
        resume: spec.resume,
        trace_path: args.get("trace").map(Into::into),
        ..sttlock_cluster::CoordinatorConfig::default()
    };
    let min_workers = cfg.min_workers;
    let coordinator = sttlock_cluster::start_coordinator(cfg)
        .map_err(|e| CliError::Step(format!("cannot start coordinator: {e}")))?;
    eprintln!(
        "sttlock coordinator listening on {addr} (waiting for {min_workers} worker(s); \
         join with `sttlock-cli cluster work --join {addr}`)",
        addr = coordinator.addr(),
    );

    // An explicit wall bound on the whole distributed run; 0 (the
    // default) trusts the per-cell timeouts and worker liveness.
    let budget = match args.get_u64("run-timeout-secs", 0)? {
        0 => sttlock_exec::Budget::unbounded(),
        secs => sttlock_exec::Budget::with_timeout(std::time::Duration::from_secs(secs)),
    };
    let result = coordinator.run_campaign(&spec, &budget);
    if let Some(path) = args.get("out") {
        write_artifact(path, result.to_jsonl())?;
    }
    let mut out = campaign_report(table, &spec, &result);
    let digest = coordinator.shutdown();
    out.push_str(&format!("\ncluster coordinator drained: {digest}\n"));
    Ok(out)
}

fn cmd_cluster_work(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(
        argv,
        "join listen advertise id cache-dir heartbeat-ms request-timeout-ms",
        "",
    )?;
    let join = args.require("join")?.to_owned();
    let cfg = sttlock_cluster::WorkerConfig {
        coordinator: join.clone(),
        listen: args.get("listen").unwrap_or("127.0.0.1:0").to_owned(),
        advertise: args.get("advertise").map(str::to_owned),
        worker_id: args.get("id").map(str::to_owned),
        cache_dir: args.get("cache-dir").map(Into::into),
        heartbeat: std::time::Duration::from_millis(args.get_u64("heartbeat-ms", 500)?),
        request_timeout: std::time::Duration::from_millis(
            args.get_u64("request-timeout-ms", 600_000)?,
        ),
        install_obs: true,
    };
    let worker = sttlock_cluster::start_worker(cfg)
        .map_err(|e| CliError::Step(format!("cannot start worker: {e}")))?;
    eprintln!(
        "sttlock worker {} serving on {} (coordinator {join}); \
         stop with POST /admin/shutdown or EOF on stdin",
        worker.id(),
        worker.addr(),
    );
    // Same local stop channel as `serve`: stdin doubles as the
    // operator's shutdown signal.
    spawn_stdin_watcher(worker.stop_handle());
    let digest = worker.wait();
    Ok(format!("sttlock worker drained cleanly: {digest}\n"))
}

fn cmd_serve(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(
        argv,
        "addr workers queue-depth request-timeout-ms cache-dir max-body-bytes trace",
        "debug-endpoints",
    )?;
    let mut limits = sttlock_serve::http::Limits::default();
    limits.max_body_bytes = args.get_u64("max-body-bytes", limits.max_body_bytes as u64)? as usize;
    let cfg = sttlock_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_owned(),
        workers: args.get_u64("workers", 0)? as usize,
        queue_depth: args.get_u64("queue-depth", 64)? as usize,
        request_timeout: std::time::Duration::from_millis(
            args.get_u64("request-timeout-ms", 10_000)?,
        ),
        cache_dir: args.get("cache-dir").map(Into::into),
        limits,
        debug_endpoints: args.has("debug-endpoints"),
        trace_path: args.get("trace").map(Into::into),
        install_obs: true,
    };
    let queue_depth = cfg.queue_depth;
    let server = sttlock_serve::Server::start(cfg)
        .map_err(|e| CliError::Step(format!("cannot start server: {e}")))?;
    eprintln!(
        "sttlock-serve listening on {} (queue {queue_depth}); stop with POST /admin/shutdown or EOF on stdin",
        server.addr(),
    );
    // No signal handling without libc, so stdin doubles as the local
    // stop channel.
    spawn_stdin_watcher(server.stop_handle());
    let digest = server.wait();
    Ok(format!("sttlock-serve drained cleanly: {digest}\n"))
}

/// Watches stdin for a stop command on a thread of its own: a `quit`,
/// `stop` or `shutdown` line cancels `stop`, and so does EOF when stdin
/// is a terminal (Ctrl-D). EOF on any other stdin ends the watch
/// without stopping, so a server started `< /dev/null` keeps running.
///
/// The thread is never joined: it may stay blocked in its read after
/// the server drains, and the process exits without it. Lines are read
/// as bytes, so one that is not UTF-8 is skipped rather than ending
/// the watch.
fn spawn_stdin_watcher(stop: sttlock_exec::CancelToken) {
    use std::io::BufRead;
    let interactive = std::io::IsTerminal::is_terminal(&std::io::stdin());
    std::thread::spawn(move || {
        let mut stdin = std::io::stdin().lock();
        let mut line = Vec::new();
        loop {
            line.clear();
            match stdin.read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => {
                    if interactive {
                        break; // Ctrl-D: drain and exit
                    }
                    return; // detached stdin: admin endpoint only
                }
                Ok(_) => {
                    let text = String::from_utf8_lossy(&line);
                    if matches!(text.trim(), "quit" | "stop" | "shutdown") {
                        break;
                    }
                }
            }
        }
        stop.cancel();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("sttlock-cli-tests");
        let _ = fs::create_dir_all(&dir);
        dir.join(format!("{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn help_is_shown_without_arguments() {
        let out = run(&[]).unwrap();
        assert!(out.contains("sttlock-cli"));
        assert!(out.contains("lock"));
    }

    #[test]
    fn unknown_command_is_rejected() {
        let e = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn campaign_rejects_an_explicit_zero_jobs() {
        let e = run(&argv(&["campaign", "--circuits", "s641", "--jobs", "0"])).unwrap_err();
        assert!(
            e.to_string().contains("--jobs"),
            "the error must name the flag: {e}"
        );
        assert!(
            e.to_string().contains("at least 1"),
            "the error must explain the bound: {e}"
        );
        // `cluster coordinate` takes no `--jobs` at all.
        let e = run(&argv(&[
            "cluster",
            "coordinate",
            "--circuits",
            "s641",
            "--jobs",
            "0",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("--jobs"));
    }

    #[test]
    fn cluster_requires_a_known_subcommand_and_a_join_address() {
        let e = run(&argv(&["cluster"])).unwrap_err();
        assert!(e.to_string().contains("coordinate|work"));
        let e = run(&argv(&["cluster", "dance"])).unwrap_err();
        assert!(e.to_string().contains("dance"));
        let e = run(&argv(&["cluster", "work"])).unwrap_err();
        assert!(e.to_string().contains("--join"));
    }

    #[test]
    fn cluster_coordinate_rejects_the_flags_only_campaign_reads() {
        // Cluster cells run uncached on the workers, so `--cache` and
        // `--jobs` would be silently dropped; they are unknown flags.
        for (flag, value) in [("--cache", "cc"), ("--jobs", "2")] {
            let e = run(&argv(&[
                "cluster",
                "coordinate",
                "--circuits",
                "x:70:4:6:4",
                "--algorithms",
                "indep",
                "--listen",
                "127.0.0.1:0",
                "--run-timeout-secs",
                "1",
                "--table",
                "none",
                flag,
                value,
            ]))
            .unwrap_err();
            assert!(
                matches!(&e, CliError::Usage(m) if m.contains(&format!("unknown flag `{flag}`"))),
                "{flag}: {e}"
            );
        }
    }

    #[test]
    fn gen_lock_report_program_equiv_pipeline() {
        let design = tmp("design.bench");
        let hybrid = tmp("hybrid.bench");
        let foundry = tmp("foundry.bench");
        let key = tmp("design.key");
        let part = tmp("part.bench");

        // gen
        let out = run(&argv(&[
            "gen",
            "--gates",
            "120",
            "--dffs",
            "6",
            "--inputs",
            "6",
            "--outputs",
            "5",
            "--seed",
            "3",
            "-o",
            &design,
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");

        // lock (programmed view + key file)
        let out = run(&argv(&[
            "lock",
            "-i",
            &design,
            "--algorithm",
            "para",
            "--seed",
            "9",
            "-o",
            &hybrid,
            "--bitstream",
            &key,
        ]))
        .unwrap();
        assert!(out.contains("LUTs"), "{out}");

        // lock again, redacted view
        let out = run(&argv(&[
            "lock",
            "-i",
            &design,
            "--algorithm",
            "para",
            "--seed",
            "9",
            "-o",
            &foundry,
            "--redact",
        ]))
        .unwrap();
        assert!(out.contains("foundry"), "{out}");

        // report on the hybrid
        let out = run(&argv(&["report", "-i", &hybrid])).unwrap();
        assert!(out.contains("security"), "{out}");
        assert!(out.contains("timing"), "{out}");

        // program the foundry view from the key file
        let out = run(&argv(&[
            "program",
            "-i",
            &foundry,
            "--bitstream",
            &key,
            "-o",
            &part,
        ]))
        .unwrap();
        assert!(out.contains("programmed"), "{out}");

        // the programmed part is provably the original design
        let out = run(&argv(&["equiv", "-a", &design, "-b", &part])).unwrap();
        assert!(out.contains("EQUIVALENT"), "{out}");
    }

    #[test]
    fn convert_between_formats() {
        let design = tmp("conv.bench");
        let verilog_out = tmp("conv.v");
        run(&argv(&[
            "gen",
            "--profile",
            "s820",
            "--seed",
            "1",
            "-o",
            &design,
        ]))
        .unwrap();
        let out = run(&argv(&["convert", "-i", &design, "-o", &verilog_out])).unwrap();
        assert!(out.contains("converted"));
        // Round-trip back and check equivalence.
        let back = tmp("conv_back.bench");
        run(&argv(&["convert", "-i", &verilog_out, "-o", &back])).unwrap();
        let out = run(&argv(&["equiv", "-a", &design, "-b", &back])).unwrap();
        assert!(out.contains("EQUIVALENT"), "{out}");
    }

    #[test]
    fn optimize_reports_shrinkage() {
        let design = tmp("opt_in.bench");
        let optimized = tmp("opt_out.bench");
        run(&argv(&[
            "gen",
            "--gates",
            "150",
            "--dffs",
            "6",
            "--inputs",
            "6",
            "--outputs",
            "5",
            "--seed",
            "4",
            "-o",
            &design,
        ]))
        .unwrap();
        let out = run(&argv(&["optimize", "-i", &design, "-o", &optimized])).unwrap();
        assert!(out.contains("optimized"), "{out}");
        let out = run(&argv(&["equiv", "-a", &design, "-b", &optimized]));
        // Equivalence may be skipped if the optimizer swept registers;
        // interface mismatch is acceptable, inequivalence is not.
        if let Ok(text) = out {
            assert!(!text.contains("DIFFERENT"), "{text}");
        }
    }

    #[test]
    fn attack_modes_run_on_a_locked_pair() {
        let design = tmp("atk_design.bench");
        let foundry = tmp("atk_foundry.bench");
        let key = tmp("atk.key");
        let part = tmp("atk_part.bench");
        run(&argv(&[
            "gen",
            "--gates",
            "80",
            "--dffs",
            "4",
            "--inputs",
            "6",
            "--outputs",
            "4",
            "--seed",
            "5",
            "-o",
            &design,
        ]))
        .unwrap();
        run(&argv(&[
            "lock",
            "-i",
            &design,
            "--algorithm",
            "indep",
            "--seed",
            "2",
            "-o",
            &foundry,
            "--redact",
            "--bitstream",
            &key,
        ]))
        .unwrap();
        run(&argv(&[
            "program",
            "-i",
            &foundry,
            "--bitstream",
            &key,
            "-o",
            &part,
        ]))
        .unwrap();

        let out = run(&argv(&[
            "attack", "-i", &foundry, "--oracle", &part, "--mode", "sens", "--seed", "6",
        ]))
        .unwrap();
        assert!(out.contains("sensitization"), "{out}");

        let out = run(&argv(&[
            "attack", "-i", &foundry, "--oracle", &part, "--mode", "sat",
        ]))
        .unwrap();
        assert!(out.contains("KEY RECOVERED"), "{out}");

        let out = run(&argv(&[
            "attack", "-i", &foundry, "--oracle", &part, "--mode", "seq", "--frames", "4",
        ]))
        .unwrap();
        assert!(out.contains("no scan"), "{out}");

        for mode in [
            ["--mode", "seq", "--frames", "65"],
            ["--mode", "none", "--seed", "1"],
        ] {
            let mut args = vec!["attack", "-i", &foundry, "--oracle", &part];
            args.extend(mode);
            assert!(
                matches!(run(&argv(&args)), Err(CliError::Usage(_))),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn custom_library_round_trips_through_lock() {
        let design = tmp("lib_design.bench");
        let libfile = tmp("lib.tech");
        let hybrid = tmp("lib_hybrid.bench");
        run(&argv(&[
            "gen",
            "--gates",
            "90",
            "--dffs",
            "4",
            "--inputs",
            "6",
            "--outputs",
            "4",
            "--seed",
            "8",
            "-o",
            &design,
        ]))
        .unwrap();
        let out = run(&argv(&["library", "-o", &libfile])).unwrap();
        assert!(out.contains("exported"), "{out}");
        let out = run(&argv(&[
            "lock",
            "-i",
            &design,
            "--algorithm",
            "indep",
            "--library",
            &libfile,
            "-o",
            &hybrid,
        ]))
        .unwrap();
        assert!(out.contains("LUTs"), "{out}");
        let out = run(&argv(&["report", "-i", &hybrid, "--library", &libfile])).unwrap();
        assert!(out.contains("security"), "{out}");
    }

    #[test]
    fn campaign_runs_a_custom_grid_and_writes_jsonl() {
        let jsonl = tmp("campaign.jsonl");
        let out = run(&argv(&[
            "campaign",
            "--circuits",
            "smoke-a:70:4:6:4,smoke-b:70:4:6:4",
            "--algorithms",
            "indep",
            "--seeds",
            "3",
            "--out",
            &jsonl,
        ]))
        .unwrap();
        assert!(out.contains("Table I"), "{out}");
        assert!(out.contains("Figure 3"), "{out}");
        assert!(out.contains("2 runs (2 ok, 0 failed, 0 timed out"), "{out}");
        let text = fs::read_to_string(&jsonl).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"status\":\"ok\""), "{text}");
    }

    #[test]
    fn campaign_sweeps_the_override_axis() {
        let jsonl = tmp("campaign-overrides.jsonl");
        let out = run(&argv(&[
            "campaign",
            "--circuits",
            "smoke:70:4:6:4",
            "--algorithms",
            "indep",
            "--indep-gates",
            "2,4",
            "--table",
            "none",
            "--out",
            &jsonl,
        ]))
        .unwrap();
        assert!(out.contains("2 runs (2 ok"), "{out}");
        let text = fs::read_to_string(&jsonl).unwrap();
        assert!(text.contains("\"config\":\"indep_gates=2\""), "{text}");
        assert!(text.contains("\"config\":\"indep_gates=4\""), "{text}");
    }

    #[test]
    fn campaign_injected_faults_are_rows_not_aborts() {
        let out = run(&argv(&[
            "campaign",
            "--circuits",
            "smoke:70:4:6:4",
            "--algorithms",
            "indep",
            "--timeout-secs",
            "1",
            "--inject-panic",
            "--inject-timeout",
            "--table",
            "attacks",
        ]))
        .unwrap();
        assert!(out.contains("panicked"), "{out}");
        assert!(out.contains("timed_out"), "{out}");
        assert!(out.contains("3 runs (1 ok, 1 failed, 1 timed out"), "{out}");
    }

    #[test]
    fn campaign_cache_serves_the_second_run() {
        let cache = tmp("campaign-cache");
        let args = argv(&[
            "campaign",
            "--circuits",
            "cached:70:4:6:4",
            "--algorithms",
            "indep",
            "--cache",
            &cache,
            "--table",
            "none",
        ]);
        let first = run(&args).unwrap();
        assert!(first.contains("0 cached"), "{first}");
        let second = run(&args).unwrap();
        assert!(second.contains("1 cached"), "{second}");
    }

    /// The obs registry is process-global, so the two trace-flag tests
    /// must not overlap each other (no other test installs a collector;
    /// concurrent non-trace tests merely add extra spans, which the
    /// `contains` assertions below tolerate).
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn campaign_trace_exports_span_trees_and_a_summary() {
        let _obs = obs_lock();
        let trace = tmp("campaign-trace.jsonl");
        let out = run(&argv(&[
            "campaign",
            "--circuits",
            "traced:70:4:6:4",
            "--algorithms",
            "indep,para",
            "--table",
            "none",
            "--trace",
            &trace,
            "--trace-summary",
        ]))
        .unwrap();
        assert!(out.contains("== obs summary =="), "{out}");
        assert!(out.contains("campaign.cell"), "{out}");
        let text = fs::read_to_string(&trace).unwrap();
        assert!(
            text.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
            "{text}"
        );
        for name in [
            "campaign.execute",
            "campaign.cell",
            "cell.generate",
            "cell.flow",
            "flow.selection",
            "flow.replace",
        ] {
            assert!(
                text.contains(&format!("\"name\":\"{name}\"")),
                "missing span `{name}` in trace:\n{text}"
            );
        }
        // The per-cell spans hang off the campaign.execute root even
        // though the cells ran on worker threads.
        let exec = text
            .lines()
            .find(|l| l.contains("\"name\":\"campaign.execute\""))
            .unwrap();
        let id = exec
            .split("\"id\":")
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap();
        assert!(
            text.contains(&format!("\"parent\":{id},\"name\":\"campaign.cell\"")),
            "{text}"
        );
    }

    #[test]
    fn faults_trace_summary_covers_the_repair_loop() {
        let _obs = obs_lock();
        let out = run(&argv(&[
            "faults",
            "--profile",
            "s641",
            "--algorithm",
            "indep",
            "--seed",
            "7",
            "--trace-summary",
        ]))
        .unwrap();
        assert!(out.contains("== obs summary =="), "{out}");
        assert!(out.contains("repair.round"), "{out}");
        assert!(out.contains("repair.verify"), "{out}");
        assert!(out.contains("flow.selection"), "{out}");
    }

    #[test]
    fn faults_injects_and_repairs_a_generated_profile() {
        let out = run(&argv(&[
            "faults",
            "--profile",
            "s641",
            "--algorithm",
            "indep",
            "--seed",
            "7",
            "--write-p",
            "0.2",
        ]))
        .unwrap();
        assert!(out.contains("injected"), "{out}");
        assert!(!out.contains("injected 0 fault(s)"), "{out}");
        // At wf=0.2 the repair channel itself keeps failing writes, so
        // any verdict from the taxonomy is legitimate — the command
        // must report one rather than panic or refuse.
        assert!(
            ["recovered", "degraded", "unrecoverable"]
                .iter()
                .any(|v| out.contains(&format!("verify+repair: {v}"))),
            "{out}"
        );
        assert!(out.contains("security under faults"), "{out}");
    }

    #[test]
    fn faults_verifies_a_programmed_part_from_disk() {
        let design = tmp("flt_design.bench");
        let hybrid = tmp("flt_hybrid.bench");
        run(&argv(&[
            "gen",
            "--gates",
            "80",
            "--dffs",
            "4",
            "--inputs",
            "6",
            "--outputs",
            "4",
            "--seed",
            "5",
            "-o",
            &design,
        ]))
        .unwrap();
        run(&argv(&[
            "lock",
            "-i",
            &design,
            "--algorithm",
            "indep",
            "--seed",
            "2",
            "-o",
            &hybrid,
        ]))
        .unwrap();
        // Fault-free model: a pure verify must conclude recovered with
        // zero retries.
        let out = run(&argv(&["faults", "-i", &hybrid])).unwrap();
        assert!(out.contains("injected 0 fault(s)"), "{out}");
        assert!(out.contains("recovered after 0 retry"), "{out}");

        // Unlockable inputs are typed errors, not panics.
        let e = run(&argv(&["faults", "-i", &design])).unwrap_err();
        assert!(e.to_string().contains("no LUTs"), "{e}");
        let redacted = tmp("flt_foundry.bench");
        run(&argv(&[
            "lock",
            "-i",
            &design,
            "--algorithm",
            "indep",
            "--seed",
            "2",
            "-o",
            &redacted,
            "--redact",
        ]))
        .unwrap();
        let e = run(&argv(&["faults", "-i", &redacted])).unwrap_err();
        assert!(e.to_string().contains("redacted"), "{e}");
    }

    #[test]
    fn campaign_fault_sweep_renders_the_recovery_table() {
        let out = run(&argv(&[
            "campaign",
            "--circuits",
            "fsweep:70:4:6:4",
            "--algorithms",
            "indep",
            "--seeds",
            "3",
            "--fault-p",
            "0,0.1",
            "--table",
            "faults",
        ]))
        .unwrap();
        assert!(out.contains("Fault sweep"), "{out}");
        assert!(out.contains("wf=0.1"), "{out}");
        assert!(out.contains("2 runs (2 ok"), "{out}");
    }

    #[test]
    fn campaign_resume_replays_the_journal() {
        let journal = tmp("resume.jsonl");
        let base = [
            "campaign",
            "--circuits",
            "resumed:70:4:6:4",
            "--algorithms",
            "indep",
            "--table",
            "none",
            "--journal",
            &journal,
        ];
        let first = run(&argv(&base)).unwrap();
        assert!(first.contains("1 ok"), "{first}");
        let entries = |path: &str| {
            sttlock_store::read_all::<sttlock_campaign::JournalEntry>(Path::new(path))
                .unwrap()
                .0
        };
        assert_eq!(entries(&journal).len(), 1);

        let mut resumed_args = base.to_vec();
        resumed_args.push("--resume");
        let second = run(&argv(&resumed_args)).unwrap();
        assert!(second.contains("1 ok"), "{second}");
        // The replayed cell did not re-execute: no new journal entry.
        assert_eq!(entries(&journal).len(), 1);

        // --resume without --journal is a usage error.
        assert!(matches!(
            run(&argv(&["campaign", "--circuits", "x:70:4:6:4", "--resume"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn campaign_rejects_bad_grids() {
        assert!(matches!(
            run(&argv(&["campaign", "--circuits", "nosuch"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv(&["campaign", "--circuits", "x:1:2"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv(&["campaign", "--attacks", "frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv(&["campaign", "--attacks", "seq", "--frames", "65"])),
            Err(CliError::Usage(m)) if m.contains("`frames`")
        ));
        assert!(matches!(
            run(&argv(&["campaign", "--table", "table9"])),
            Err(CliError::Usage(_))
        ));
        // Two circuits of one name would share journal entries.
        let e = run(&argv(&[
            "campaign",
            "--circuits",
            "a:100:4:6:4,a:200:4:6:4",
            "--algorithms",
            "indep",
        ]))
        .unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("`a` twice")),
            "{e}"
        );
    }

    #[test]
    fn impossible_custom_circuits_are_usage_errors() {
        let out = tmp("no_inputs.bench");
        let e = run(&argv(&["gen", "--gates", "5", "--inputs", "0", "-o", &out])).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("--inputs 0") && m.contains("primary input")),
            "{e}"
        );
        // Rejected while parsing the grid, before any cell runs.
        let e = run(&argv(&[
            "campaign",
            "--circuits",
            "x:0:1:1:1",
            "--table",
            "none",
        ]))
        .unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("`--circuits` item `x:0:1:1:1`")),
            "{e}"
        );
    }

    #[test]
    fn probabilities_outside_the_unit_interval_are_usage_errors() {
        let e = run(&argv(&["faults", "--profile", "s641", "--write-p", "NaN"])).unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("`--write-p`")),
            "{e}"
        );
        let e = run(&argv(&[
            "campaign",
            "--circuits",
            "s641",
            "--algorithms",
            "indep",
            "--fault-p",
            "1.5",
            "--table",
            "none",
        ]))
        .unwrap_err();
        assert!(
            matches!(&e, CliError::Usage(m) if m.contains("`--fault-p`")),
            "{e}"
        );
    }

    #[test]
    fn misspelled_flags_are_usage_errors_that_name_the_flag() {
        let cases: [&[&str]; 3] = [
            &[
                "campaign",
                "--circuits",
                "s641",
                "--algorithms",
                "indep",
                "--seed",
                "5",
            ],
            &["gen", "--profile", "s641", "--sed", "3", "-o", "g.bench"],
            &["cluster", "coordinate", "--circuits", "s641", "--seed", "5"],
        ];
        for case in cases {
            let e = run(&argv(case)).unwrap_err();
            let flag = case
                .iter()
                .find(|a| ["--seed", "--sed"].contains(a))
                .unwrap();
            assert!(
                matches!(&e, CliError::Usage(m) if m.contains(&format!("unknown flag `{flag}`"))),
                "{case:?}: {e}"
            );
        }
    }

    #[test]
    fn missing_flags_produce_usage_errors() {
        assert!(matches!(run(&argv(&["lock"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&argv(&["report"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&argv(&["gen", "-o", "x.bench"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_extension_is_rejected() {
        let e = load_netlist("design.xyz").unwrap_err();
        // Missing file is also fine as long as the message is usable.
        assert!(!e.to_string().is_empty());
    }
}
