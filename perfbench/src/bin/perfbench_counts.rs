//! The counting benchmark binary, with simnet's counting allocator
//! linked in: exact counts and allocations, no times. See
//! `perfbench/README.md`.

use doqlab_perfbench::{micro, spans, Pass};

fn main() {
    doqlab_perfbench::main_with(|args| match args.pass {
        Pass::Counts => spans::run_counts(args),
        Pass::Micro => micro::report(&micro::allocs()),
        Pass::EndToEnd | Pass::Spans => {
            eprintln!("perfbench_counts: timed passes run in perfbench");
            2
        }
    })
}
