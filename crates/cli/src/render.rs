//! Rendering of each `smctl` subcommand.

use std::fmt::Write as _;

use crate::{table, CliError};
use sm_core::{consecutive_slots, diagram, full_cost, ReceivingProgram};
use sm_offline::closed_form::ClosedForm;
use sm_offline::forest::optimal_forest;
use sm_offline::receive_all;
use sm_offline::tree_builder::optimal_merge_tree;
use sm_online::delay_guaranteed::online_full_cost;

/// `smctl mcost <n>`.
pub fn mcost(n: u64) -> String {
    let cf = ClosedForm::new();
    let (lo, hi) = cf.last_merge_interval(n.max(2));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "M({n}) = {}   (receive-two optimal merge cost)",
        cf.merge_cost(n)
    );
    let _ = writeln!(
        out,
        "Mω({n}) = {}   (receive-all optimal merge cost)",
        receive_all::merge_cost(n)
    );
    if n >= 2 {
        let _ = writeln!(
            out,
            "I({n}) = [{lo}, {hi}]   (arrivals that can merge last to the root)"
        );
    }
    out
}

/// `smctl tree <n>`.
pub fn tree(n: u64) -> String {
    let t = optimal_merge_tree(n as usize);
    let times = consecutive_slots(n as usize);
    let cost = sm_core::merge_cost(&t, &times);
    let mut out = String::new();
    let _ = writeln!(out, "optimal merge tree for n = {n}:");
    let _ = writeln!(out, "  {}", t.to_sexpr());
    let _ = writeln!(out, "merge cost: {cost}");
    let _ = writeln!(out, "height: {} (longest receiving program)", t.height());
    out
}

/// `smctl plan <L> <n>`.
pub fn plan(media_len: u64, n: u64) -> String {
    let plan = optimal_forest(media_len, n as usize);
    let sizes = plan.forest.sizes();
    let mut out = String::new();
    let _ = writeln!(out, "optimal merge forest for L = {media_len}, n = {n}:");
    let _ = writeln!(out, "  full streams: {}", plan.s);
    let _ = writeln!(out, "  tree sizes: {sizes:?}");
    let _ = writeln!(out, "  full cost F(L,n) = {} slot-units", plan.cost);
    let _ = writeln!(
        out,
        "  average bandwidth: {:.3} streams",
        plan.cost as f64 / n as f64
    );
    let _ = writeln!(
        out,
        "  plain batching would cost {} (x{:.2})",
        n * media_len,
        (n * media_len) as f64 / plan.cost as f64
    );
    out
}

/// `smctl diagram <L> <n>`.
pub fn diagram(media_len: u64, n: u64) -> String {
    let plan = optimal_forest(media_len, n as usize);
    let times = consecutive_slots(n as usize);
    let rendered = diagram::render_forest(&plan.forest, &times, media_len);
    let cost = full_cost(&plan.forest, &times, media_len);
    format!(
        "{rendered}\nfull cost: {cost} slot-units (s = {} full streams)\n",
        plan.s
    )
}

/// `smctl program <L> <n> <t>`.
pub fn program(media_len: u64, n: u64, client: u64) -> String {
    let plan = optimal_forest(media_len, n as usize);
    let times = consecutive_slots(n as usize);
    let (tree_idx, local) = plan.forest.locate(client as usize);
    let start = plan.forest.tree_start(tree_idx);
    let tree = &plan.forest.trees()[tree_idx];
    let end = start + tree.len();
    let local_times = &times[start..end];
    let rp = ReceivingProgram::build(tree, local_times, media_len, local);
    let mut out = String::new();
    let path_global: Vec<String> = rp.path.iter().map(|&x| (x + start).to_string()).collect();
    let _ = writeln!(
        out,
        "client {client} (tree {tree_idx}, local {local}) path: {}",
        path_global.join(" -> ")
    );
    for (stage, seg) in rp.segments.iter().enumerate() {
        if seg.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "  stage {stage}: parts {:>3} ..= {:<3} from stream {}",
            seg.first_part,
            seg.last_part,
            seg.stream + start
        );
    }
    let _ = writeln!(
        out,
        "buffer needed: {} slots (Lemma 15)",
        sm_core::required_buffer(tree, local_times, media_len, local)
    );
    out
}

/// `smctl online <L> <horizon>`.
pub fn online(media_len: u64, horizon: u64) -> String {
    let cf = ClosedForm::new();
    let h = cf.fib().theorem12_h(media_len);
    let fh = cf.fib().get(h);
    let online = online_full_cost(media_len, horizon);
    let offline = sm_offline::forest::optimal_full_cost(media_len, horizon);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "on-line Delay Guaranteed, L = {media_len}, horizon = {horizon}:"
    );
    let _ = writeln!(out, "  tree size F_h = {fh} (h = {h})");
    let _ = writeln!(out, "  on-line cost  A(L,n) = {online}");
    let _ = writeln!(out, "  off-line cost F(L,n) = {offline}");
    let _ = writeln!(
        out,
        "  ratio = {:.5}  (Theorem 22 bound: 1 + 2L/n = {:.5})",
        online as f64 / offline as f64,
        1.0 + 2.0 * media_len as f64 / horizon as f64
    );
    out
}

/// `smctl broadcast <L> <D>`.
pub fn broadcast(media_len: u64, delay: u64) -> Result<String, CliError> {
    let rows =
        sm_broadcast::static_tradeoff(media_len, delay).map_err(|e| CliError::BadArgument {
            arg: format!("{media_len} {delay}"),
            reason: e.to_string(),
        })?;
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.to_string(),
                format!("{:.3}", r.channels),
                r.worst_delay.to_string(),
                r.max_concurrent.to_string(),
                r.max_buffer.to_string(),
            ]
        })
        .collect();
    let mut out =
        format!("static broadcasting schemes for L = {media_len} units, delay = {delay}:\n");
    out.push_str(&table(
        &["scheme", "channels", "worst-delay", "recv-cap", "buffer"],
        &table_rows,
    ));
    out.push('\n');
    let merging = sm_online::capacity::steady_state_bandwidth(media_len / delay);
    let _ = writeln!(
        out,
        "\nstream merging (Delay Guaranteed, same delay): peak {} / avg {:.2} streams",
        merging.peak, merging.average
    );
    Ok(out)
}

/// `smctl server <k> <budget>`.
pub fn server(titles: usize, budget: u64) -> String {
    let catalog = sm_server::Catalog::zipf(titles, 1.0, &[120.0, 90.0, 100.0]);
    let candidates = [1.0, 2.0, 5.0, 10.0, 20.0];
    match sm_server::plan_weighted(&catalog, budget, &candidates) {
        None => format!(
            "no feasible plan: even {}-minute delays exceed {budget} streams",
            candidates.last().unwrap()
        ),
        Some(plan) => {
            let probs = catalog.probabilities();
            let rows: Vec<Vec<String>> = catalog
                .titles()
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    vec![
                        t.name.clone(),
                        format!("{:.0}", t.duration_minutes),
                        format!("{:.3}", probs[i]),
                        format!("{:.0}", plan.delays_minutes[i]),
                        plan.peaks[i].to_string(),
                    ]
                })
                .collect();
            let mut out = format!(
                "per-title delay plan for {titles} Zipf titles, budget {budget} streams:\n"
            );
            out.push_str(&table(
                &["title", "minutes", "popularity", "delay-min", "peak"],
                &rows,
            ));
            let _ = write!(
                out,
                "\n\ntotal peak: {} / {budget}   expected delay: {:.2} min",
                plan.total_peak, plan.expected_delay
            );
            out
        }
    }
}

/// `smctl serve <horizon> <budget|unlimited> <L>:<mean>[:<policy>] [...]`
/// — a live multi-title serving run under one shared channel budget.
pub fn serve(
    horizon: f64,
    budget: Option<usize>,
    titles: Vec<sm_serve::TitleConfig>,
) -> Result<String, CliError> {
    let config = sm_serve::MultiServeConfig {
        budget,
        ..sm_serve::MultiServeConfig::new(titles, horizon)
    };
    let report = sm_serve::serve_multi(&config).map_err(|e| CliError::BadArgument {
        arg: format!("serve {horizon}"),
        reason: e.to_string(),
    })?;
    let mut out = format!(
        "live serve: {} title(s), horizon = {horizon} slots, {}\n",
        report.titles.len(),
        match budget {
            Some(b) => format!("shared budget: {b} channel(s)"),
            None => "unbounded budget".to_string(),
        }
    );
    let _ = writeln!(
        out,
        "  arrivals: {} generated, {} served, {} rejected",
        report.generated, report.served, report.rejected
    );
    let d = &report.delay;
    let _ = writeln!(
        out,
        "  start-up delay: p50 {} / p99 {} / max {} slots, mean {:.2}",
        d.p50_slots, d.p99_slots, d.max_slots, d.mean_slots
    );
    let rows: Vec<Vec<String>> = config
        .titles
        .iter()
        .zip(&report.titles)
        .enumerate()
        .map(|(i, (tc, tr))| {
            vec![
                format!("title-{i:02}"),
                tr.media_len.to_string(),
                match tc.policy {
                    sm_serve::PolicyKind::DelayGuaranteed => "delay-guaranteed".to_string(),
                    sm_serve::PolicyKind::Dyadic => "dyadic".to_string(),
                },
                tr.generated.to_string(),
                tr.groups.to_string(),
                tr.planned_peak.to_string(),
                tr.delay.p99_slots.to_string(),
                tr.delay.max_slots.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::table(
        &[
            "title", "L", "policy", "arrivals", "groups", "peak", "p99", "max",
        ],
        &rows,
    ));
    out.push('\n');
    let _ = writeln!(
        out,
        "  planner memo: {} per-length analyses served from cache",
        report.memo_hits
    );
    let l = report.latency;
    let _ = write!(
        out,
        "  push latency (1 in 64 sampled): p50 {} ns, p90 {} ns, p99 {} ns, max {} ns; \
         ingest mean {} ns/arrival",
        l.p50_ns, l.p90_ns, l.p99_ns, l.max_ns, l.mean_ns
    );
    Ok(out)
}

/// `smctl client <scheme> <L> <D> <arrival>` — the reception schedule of
/// one broadcast client.
pub fn broadcast_client(
    scheme: &str,
    media_len: u64,
    delay: u64,
    arrival: u64,
) -> Result<String, CliError> {
    use sm_broadcast::verify::client_schedule;
    let bad = |reason: String| CliError::BadArgument {
        arg: scheme.to_string(),
        reason,
    };
    let plan = match scheme {
        "staggered" => sm_broadcast::staggered_broadcasting(media_len, delay),
        "pyramid" => sm_broadcast::pyramid_broadcasting(media_len, delay, 1.5),
        "skyscraper" => sm_broadcast::skyscraper_broadcasting(media_len, delay, 52),
        "fast" => {
            let k = sm_broadcast::fast::channels_for(media_len, delay);
            sm_broadcast::fast_broadcasting(k, delay)
        }
        other => {
            return Err(bad(format!(
                "unknown scheme `{other}` (use staggered|pyramid|skyscraper|fast)"
            )))
        }
    }
    .map_err(|e| bad(e.to_string()))?;
    let outcome = client_schedule(&plan, arrival).map_err(|e| bad(e.to_string()))?;
    let mut out = format!(
        "{scheme} client, media {} units, arrival {arrival}:\n\
         playback starts at {} (delay {})\n",
        plan.media_len(),
        outcome.playback_start,
        outcome.delay
    );
    let prefix = plan.prefix_lengths();
    for (i, &(s, e)) in outcome.receive_windows.iter().enumerate() {
        let _ = writeln!(
            out,
            "  segment {i:>2}: receive [{s:>4}, {e:>4})  playback at {:>4}",
            outcome.playback_start + prefix[i]
        );
    }
    let _ = writeln!(
        out,
        "max concurrent channels: {}; max buffer: {} units",
        outcome.max_concurrent, outcome.max_buffer
    );
    Ok(out)
}

/// `smctl policies <L> <lambda_pct>` — one row per on-line policy at a
/// constant-rate workload (gap = `lambda_pct`% of the media, horizon 50
/// media lengths).
pub fn policies(media_len: u64, lambda_pct: f64) -> String {
    use sm_online::batching::plain_batching_cost;
    use sm_online::dyadic::{dyadic_total_cost, DyadicConfig};
    use sm_online::hierarchical::ermt_tuned_cost;
    use sm_online::patching::{optimal_threshold, patching_total_cost};
    use sm_workload::{ArrivalProcess, ConstantRate};

    let media = media_len as f64;
    let horizon = 50.0 * media;
    let interval = lambda_pct / 100.0 * media;
    let arrivals = ConstantRate::new(interval).generate(horizon);
    let dg = online_full_cost(media_len, horizon as u64) as f64 / media;
    let rows = [
        ("delay guaranteed", dg),
        (
            "dyadic (alpha=phi)",
            dyadic_total_cost(
                DyadicConfig::golden_constant_rate(media_len),
                media,
                &arrivals,
            ) / media,
        ),
        (
            "ermt (tuned)",
            ermt_tuned_cost(media, 1.0 / interval, &arrivals) / media,
        ),
        (
            "patching (tau*)",
            patching_total_cost(media, optimal_threshold(media, 1.0 / interval), &arrivals) / media,
        ),
        (
            "plain batching",
            plain_batching_cost(&arrivals, 1.0, media) / media,
        ),
    ];
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, cost)| vec![name.to_string(), format!("{cost:.1}")])
        .collect();
    let mut out = format!(
        "on-line policies, L = {media_len} slots, constant-rate gap = {lambda_pct}% \
         of the media, horizon = 50 media lengths\n(total bandwidth in complete-stream \
         equivalents; delay = 1 slot)\n\n"
    );
    out.push_str(&table(&["policy", "streams"], &table_rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_offline::dp;

    #[test]
    fn mcost_matches_dp_table() {
        let tbl = dp::merge_cost_table(16);
        for (i, &v) in tbl.iter().enumerate().skip(1) {
            assert!(mcost(i as u64).contains(&format!("M({i}) = {v}")));
        }
    }

    #[test]
    fn online_ratio_is_above_one() {
        let out = online(50, 5000);
        assert!(out.contains("ratio"));
    }

    #[test]
    fn server_infeasible_budget_reports_cleanly() {
        let out = server(5, 1);
        assert!(out.contains("no feasible plan"));
    }
}
