//! Regenerates the ratio tables of Theorems 14, 19, 20 and 22, each cost
//! beside the bounds of Theorems 8, 13 and 21.

use sm_experiments::output::{render_table, results_dir, write_csv};
use sm_experiments::ratios;

fn main() {
    println!("Theorem 19 — M(n)/Mw(n) -> log_phi(2) ~ 1.4404, M(n) within Theorem 8\n");
    let t19 = ratios::theorem19_rows();
    let rows: Vec<Vec<String>> = t19
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.0}", r.m_two_lower),
                r.m_two.to_string(),
                format!("{:.0}", r.m_two_upper),
                r.m_all.to_string(),
                format!("{:.4}", r.ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["n", "Thm 8 lower", "M(n)", "Thm 8 upper", "Mw(n)", "ratio"],
            &rows
        )
    );
    write_csv(
        &results_dir().join("theorem19.csv"),
        &["n", "m2_lower", "m2", "m2_upper", "mall", "ratio"],
        &rows,
    )
    .expect("write CSV");

    println!("Theorem 20 — F(L,n)/Fw(L,n) for n = 300 L, F(L,n) beside Theorem 13\n");
    let t20 = ratios::theorem20_rows();
    let rows: Vec<Vec<String>> = t20
        .iter()
        .map(|r| {
            vec![
                r.media_len.to_string(),
                format!("{:.0}", r.principal),
                r.f_two.to_string(),
                r.f_all.to_string(),
                format!("{:.4}", r.ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["L", "n log_phi L", "F(L,n)", "Fw(L,n)", "ratio"], &rows)
    );
    write_csv(
        &results_dir().join("theorem20.csv"),
        &["L", "principal", "f2", "fall", "ratio"],
        &rows,
    )
    .expect("write CSV");

    println!("Theorem 14 — merging gain over plain batching (~ L / log L)\n");
    let t14 = ratios::theorem14_rows();
    let rows: Vec<Vec<String>> = t14
        .iter()
        .map(|(l, gain, pred)| vec![l.to_string(), format!("{gain:.2}"), format!("{pred:.2}")])
        .collect();
    println!("{}", render_table(&["L", "gain", "L/log_phi L"], &rows));
    write_csv(
        &results_dir().join("theorem14.csv"),
        &["L", "gain", "predicted"],
        &rows,
    )
    .expect("write CSV");

    println!("Theorem 22 — A/F vs 1 + 2L/n (L = 15), A(L,n) within Theorem 21\n");
    let t22 = ratios::theorem22_rows(15);
    let rows: Vec<Vec<String>> = t22
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.online.to_string(),
                r.online_upper.to_string(),
                format!("{:.6}", r.ratio),
                format!("{:.6}", r.bound),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["n", "A(L,n)", "Thm 21 upper", "ratio", "bound"], &rows)
    );
    write_csv(
        &results_dir().join("theorem22.csv"),
        &["n", "a", "a_upper", "ratio", "bound"],
        &rows,
    )
    .expect("write CSV");
}
