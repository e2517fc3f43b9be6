//! B1 — the §1 "two lines instead of thirteen" claim, measured.
//!
//! Counts the code in `examples/quickstart.rs`: the provided-access
//! function body vs the hand-written weakly typed matcher, and the error
//! surface (explicit failure points) of each. Also reports the same
//! comparison for the paper's original F# listings (hard-coded from the
//! paper text) for reference.
//!
//! Run with `cargo run --example tables`.

fn body_lines(source: &str, fn_name: &str) -> usize {
    let mut lines = source.lines().skip_while(|l| !l.contains(fn_name));
    let mut depth = 0usize;
    let mut count = 0usize;
    for line in &mut lines {
        depth += line.matches('{').count();
        let closing = line.matches('}').count();
        if depth > 0 {
            count += 1;
        }
        if closing >= depth && depth > 0 {
            break;
        }
        depth -= closing;
    }
    count.saturating_sub(2) // exclude the signature and closing brace
}

fn count_error_points(source: &str, fn_name: &str, marker: &str) -> usize {
    let mut in_fn = false;
    let mut depth = 0usize;
    let mut count = 0usize;
    for line in source.lines() {
        if line.contains(fn_name) {
            in_fn = true;
        }
        if in_fn {
            depth += line.matches('{').count();
            count += line.matches(marker).count();
            let closing = line.matches('}').count();
            if closing >= depth && depth > 0 {
                break;
            }
            depth -= closing;
        }
    }
    count
}

fn main() {
    let source = include_str!("quickstart.rs");

    let provided_lines = body_lines(source, "fn provided_access");
    let hand_lines = body_lines(source, "fn hand_written_access");
    let hand_failures = count_error_points(source, "fn hand_written_access", "incorrect format");

    println!("Table B1 — code size for the §1 weather access");
    println!("(the paper: 13 lines of matching vs 2 lines with the provider)\n");
    println!("| variant                     | lines | explicit failure arms |");
    println!("|-----------------------------|-------|-----------------------|");
    println!("| paper F#: hand-written      |    13 |                     3 |");
    println!("| paper F#: JsonProvider      |     2 |                     0 |");
    println!("| this repo: hand-written     | {hand_lines:>5} | {hand_failures:>21} |");
    println!("| this repo: json_provider!   | {provided_lines:>5} |                     0 |");
    println!();
    let factor = hand_lines as f64 / provided_lines.max(1) as f64;
    println!(
        "reduction factor (this repo): {factor:.1}x fewer lines with the provider \
         (paper: {:.1}x)",
        13.0 / 2.0
    );
}
