//! Command-line entry point: runs one workload and prints its result
//! as one JSON line, last on stdout.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&args) {
        Ok(finished) => {
            println!("{}", finished.json);
            if finished.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
