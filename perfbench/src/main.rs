//! `perfbench --workload W --seed N --seconds S --trace 0|1 --trout BIN
//! --work DIR`: runs one benchmark workload and prints the full report, then
//! the result object as the last stdout line. Exits 1 when an oracle check
//! fails, 2 on bad arguments.

use std::time::Instant;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.run_dir);
    std::fs::create_dir_all(&args.run_dir).expect("create the run directory");
    let t = Instant::now();
    let out = perfbench::run(&args);
    let report = perfbench::report_json(&args, &out, t.elapsed().as_secs_f64());
    let _ = std::fs::create_dir_all(&args.out_dir);
    let _ = std::fs::write(
        args.out_dir.join(format!(
            "report-{}-trace{}.json",
            args.workload, args.trace as u8
        )),
        format!("{report}\n"),
    );
    if out.correct() {
        let _ = std::fs::remove_dir_all(&args.run_dir);
    }
    println!("{report}");
    println!("{}", out.result_line());
    if !out.correct() {
        for e in &out.errors {
            eprintln!("perfbench: correctness check failed: {e}");
        }
        std::process::exit(1);
    }
}
