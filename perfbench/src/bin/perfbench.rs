//! The timed benchmark binary, with the system allocator: the
//! end-to-end metrics and every per-layer time. See
//! `perfbench/README.md`.

use doqlab_perfbench::{micro, run_end_to_end, spans, Pass};

fn main() {
    doqlab_perfbench::main_with(|args| match args.pass {
        Pass::EndToEnd => run_end_to_end(args),
        Pass::Spans => spans::run_spans(args),
        Pass::Micro => micro::report(&micro::timings(&doqlab_core::Study::quick(args.seed))),
        Pass::Counts => {
            eprintln!("perfbench: the counts pass runs in perfbench_counts");
            2
        }
    })
}
