//! `perfbench --workload <table1|ladder|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it measures the workload and prints the end-to-end
//! metrics; with `--trace 1` it spends a third of the time on an untraced
//! measurement (for the gate and the overhead comparison) and the rest on
//! traced passes, prints the per-layer metrics, and writes the last traced
//! pass as Chrome trace-event JSON under `.perfbench_out/`. The last line of
//! standard output is always the JSON result. `--record-refs` prints the
//! reference results for `data/refs.tsv` instead.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mct_perfbench::{
    end_to_end, host, make_workload, measure, result_json, trace, Cores, Measured,
};

const OUT_DIR: &str = ".perfbench_out";
const SCRATCH_DIR: &str = ".perfbench_tmp";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-refs" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    }))
}

fn print_ops(m: &Measured) {
    println!(
        "{:<32} {:>5} {:>12} {:>12}",
        "operation", "N", "fastest_ms", "median_ms"
    );
    for (name, s) in m.names.iter().zip(&m.samples) {
        println!(
            "{:<32} {:>5} {:>12.3} {:>12.3}",
            name,
            s.len(),
            mct_perfbench::min(s) * 1e3,
            mct_perfbench::median(s) * 1e3
        );
    }
    for f in &m.failures {
        println!("FAILED {f}");
    }
}

fn print_provenance(args: &Args, m: &Measured) {
    println!(
        "workload={} seed={} seconds={} trace={} ops={} N={} host.contention={:.4}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        m.names.len(),
        m.passes(),
        m.contention()
    );
    println!(
        "nproc={} cpu=\"{}\" l3={} commit={}",
        host::nproc(),
        host::cpu_model(),
        host::l3_size(),
        host::commit()
    );
}

fn run(args: &Args, scratch: &Path) -> Result<String, String> {
    let mut w = make_workload(&args.workload, args.seed, scratch.to_path_buf())?;
    let budget = Duration::from_secs(args.seconds);
    if !args.trace {
        let m = measure(w.as_mut(), budget, mct_perfbench::MIN_PASSES)?;
        print_ops(&m);
        print_provenance(args, &m);
        let metrics = end_to_end(&m);
        println!("{}", trace::render(&metrics));
        return Ok(result_json(
            m.failed() == 0,
            m.attempted(),
            m.failed(),
            &metrics,
        ));
    }

    let start = Instant::now();
    let m = measure(w.as_mut(), budget / 3, 1)?;
    print_ops(&m);
    print_provenance(args, &m);
    let untraced_pass_s: f64 = m.fastest().iter().sum();
    let mut tracer = trace::Tracer::default();
    let cores = Cores::new(w.alternate_cores());
    let mut pass = 0;
    while pass < 2 || start.elapsed() < budget {
        cores.pin(pass);
        tracer.begin_pass();
        w.trace_pass(&mut tracer)?;
        pass += 1;
    }
    drop(cores);
    let metrics = tracer.per_layer(m.contention());
    println!(
        "traced passes={} core.run sum={:.4} s untraced pass_s={:.4} s",
        tracer.passes(),
        tracer.sum_ms("core.run") / 1e3,
        untraced_pass_s
    );
    println!("{}", trace::render(&metrics));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("trace_{}.json", args.workload));
    std::fs::write(&path, tracer.chrome_json(&args.workload))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("chrome trace: {}", path.display());
    Ok(result_json(
        m.failed() == 0,
        m.attempted(),
        m.failed(),
        &metrics,
    ))
}

fn record_refs() {
    for (key, text) in mct_perfbench::table1::Table1::new(PathBuf::new()).record() {
        println!("table1\t{key}\t{text}");
    }
    for (key, text) in mct_perfbench::ladder::Ladder::record() {
        println!("ladder\t{key}\t{text}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            record_refs();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = Path::new(SCRATCH_DIR).join(std::process::id().to_string());
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
