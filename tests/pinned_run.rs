//! The paper's shape claims, asserted on the pinned paper-scale run.
//!
//! `results/all_full.txt` is the stdout of `all --full`, which CI
//! byte-compares with a fresh run. These tests read the file itself, so
//! a change that regenerates it must keep the shape the paper reports,
//! and EXPERIMENTS.md must keep quoting the numbers the file prints.

use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lines of the block of `text` whose first line starts with
/// `title`, up to the next block's title line.
fn block<'a>(text: &'a str, title: &str, next: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|l| !l.starts_with(title))
        .take_while(|l| !l.starts_with(next))
        .collect()
}

/// Figure 4's table: each input rate `Ri` with its `Ro/Ri` for 1, 3 and
/// 5 tight links, and the printed `Ro/Ri` at `Ri = A` per link count.
struct Figure4 {
    rows: Vec<(u32, [f64; 3])>,
    at_avail: Vec<(u32, String)>,
}

fn figure4() -> Figure4 {
    let text = read("results/all_full.txt");
    let lines = block(&text, "Figure 4:", "==");
    assert!(!lines.is_empty(), "no Figure 4 block in the pinned run");
    let rows = lines
        .iter()
        .filter_map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            let [ri, one, three, five] = cols[..] else {
                return None;
            };
            let ratio = |s: &str| s.parse::<f64>().ok();
            Some((ri.parse().ok()?, [ratio(one)?, ratio(three)?, ratio(five)?]))
        })
        .collect::<Vec<_>>();
    let at_avail = lines
        .iter()
        .filter_map(|l| {
            let (links, value) = l.split_once(" tight links: Ro/Ri at Ri = A is ")?;
            Some((links.parse().ok()?, value.trim().to_string()))
        })
        .collect::<Vec<_>>();
    assert_eq!(rows.len(), 13, "Figure 4 rows: {rows:?}");
    Figure4 { rows, at_avail }
}

#[test]
fn figure4_ratio_falls_with_tight_links_and_with_rate() {
    let fig = figure4();
    // Pitfall 7: at every input rate, each extra tight link pulls the
    // output rate further below the input rate
    for (ri, [one, three, five]) in &fig.rows {
        assert!(
            one > three && three > five,
            "Ri = {ri} Mb/s: Ro/Ri {one} / {three} / {five} does not fall with the tight links"
        );
    }
    // and each curve falls as the stream approaches and passes the
    // avail-bw
    for (k, links) in [1, 3, 5].into_iter().enumerate() {
        for pair in fig.rows.windows(2) {
            let ((lo, a), (hi, b)) = (&pair[0], &pair[1]);
            assert!(
                a[k] > b[k],
                "{links} tight links: Ro/Ri {} at {lo} Mb/s, {} at {hi} Mb/s",
                a[k],
                b[k]
            );
        }
    }
}

#[test]
fn experiments_e7_quotes_the_pinned_run() {
    let fig = figure4();
    let printed: Vec<String> = [1, 3, 5]
        .iter()
        .map(|links| {
            fig.at_avail
                .iter()
                .find(|(n, _)| n == links)
                .unwrap_or_else(|| panic!("no Ro/Ri at Ri = A for {links} tight links"))
                .1
                .clone()
        })
        .collect();
    let doc = read("EXPERIMENTS.md");
    let e7 = block(&doc, "## E7 ", "## E8 ");
    let quoted: Vec<String> = e7
        .iter()
        .find(|l| l.starts_with("| measured |"))
        .expect("E7 has a `| measured |` row")
        .split('|')
        .map(str::trim)
        .filter(|c| !c.is_empty() && *c != "measured")
        .map(str::to_string)
        .collect();
    assert_eq!(
        quoted, printed,
        "EXPERIMENTS.md E7 against results/all_full.txt"
    );
}
