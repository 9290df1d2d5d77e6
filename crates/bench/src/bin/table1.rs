//! Prints the reproduction of Table 1: token counts (JMatch vs Java) and
//! compilation time with / without verification, next to the paper's numbers.
//!
//! With `--layers`, prints instead where each row's verification time goes:
//! CDCL, LIA, EUF, lazy expansion and the rest, at the table's expansion
//! depth (2) and at the compile default (3).
//!
//! Run with `cargo run -p jmatch-bench --bin table1 --release [-- --layers]`.

fn main() {
    if std::env::args().skip(1).any(|a| a == "--layers") {
        for depth in [
            2,
            jmatch_core::CompileOptions::default().max_expansion_depth,
        ] {
            let rows: Vec<_> = jmatch_corpus::entries()
                .iter()
                .map(|e| jmatch_bench::measure_layers(e, depth))
                .collect();
            println!("{}", jmatch_bench::render_layers(&rows));
        }
        return;
    }
    let rows = jmatch_bench::measure_all(2);
    print!("{}", jmatch_bench::render_table1(&rows));
    let unreproduced = jmatch_corpus::UNREPRODUCED_ROWS.join(", ");
    println!("\nrows of the paper's Table 1 not reproduced by this corpus: {unreproduced}");
}
